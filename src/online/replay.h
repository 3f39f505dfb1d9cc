#ifndef PINSQL_ONLINE_REPLAY_H_
#define PINSQL_ONLINE_REPLAY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "logstore/log_store.h"
#include "online/service.h"

namespace pinsql::online {

/// A recorded stream: query-log records plus the per-second metric samples
/// that drive the virtual clock. Samples must be in ascending second
/// order; missing seconds inside the span are replayed as telemetry gaps
/// (NaN samples that still advance the clock). Records may be in any
/// order; the replay stably orders them by arrival time.
struct ReplayLog {
  std::vector<QueryLogRecord> records;
  std::vector<PerfSample> samples;
};

struct ReplayOptions {
  ServiceOptions service;
  /// Concurrent ingest threads feeding the service. Thread j owns the
  /// shards with index ≡ j (mod num_ingest_threads), so every shard's
  /// queue order — and therefore every downstream result — is identical at
  /// any thread count.
  int num_ingest_threads = 1;
};

struct ReplayResult {
  std::vector<DiagnosisOutcome> outcomes;
  std::vector<int64_t> detection_latencies_sec;
  ServiceStats stats;

  /// Deterministic digest of everything the replay produced that is
  /// promised bit-reproducible: triggers, detection latencies, report
  /// JSON, repair events and time-to-repair. Two replays of one log are
  /// correct iff their fingerprints are byte-identical — at any
  /// num_ingest_threads and any diagnoser num_threads.
  std::string Fingerprint() const;
};

/// Appends the deterministic digest of one diagnosis outcome (trigger
/// fields, report JSON, repair accounting). Shared by the single-instance
/// digest below and the fleet-level fingerprints, so "the same diagnosis"
/// digests identically in both deployments.
void AppendOutcomeFingerprint(const DiagnosisOutcome& outcome,
                              std::string* out);

/// The single-instance digest: a "latencies:" line (detection latencies in
/// firing order) followed by every outcome's AppendOutcomeFingerprint. The
/// solo replay, a fleet instance's slice and the durable service all
/// digest through this, so their fingerprints are byte-comparable.
std::string InstanceFingerprint(
    const std::vector<int64_t>& detection_latencies_sec,
    const std::vector<DiagnosisOutcome>& outcomes);

/// One recorded stream expanded for replay. `timeline` holds one sample per
/// second from the first to the last recorded second; missing seconds are
/// NaN gap samples, so the virtual clock never stalls. `records` is the
/// log's records stably sorted by arrival time, and `ranges[i]` (parallel
/// to `timeline`) is the [begin, end) slice of them pushed in second i:
/// everything that arrived before the end of that second and was not
/// pushed yet; the last second also takes the tail. Empty when the log
/// has no samples.
struct ReplayPlan {
  std::vector<PerfSample> timeline;
  std::vector<QueryLogRecord> records;
  std::vector<std::pair<size_t, size_t>> ranges;

  bool empty() const { return timeline.empty(); }
  int64_t first_sec() const { return timeline.front().sec; }
  int64_t last_sec() const { return timeline.back().sec; }
};

ReplayPlan BuildReplayPlan(const ReplayLog& log);

/// Runs seconds [first_sec, last_sec] in lockstep over `num_workers` ingest
/// threads and the calling thread, with two barriers per second: every
/// worker runs push(worker, sec), then the caller runs advance(sec) while
/// the workers wait, then everyone moves to the next second. Each second
/// is therefore fully ingested before it is processed. The replays keep
/// their results invariant under the worker count by giving each worker a
/// fixed, disjoint share of the ingest keys. `push` and `advance` must not
/// throw: a thread blocked on the barrier could not be joined.
void RunLockstep(int num_workers, int64_t first_sec, int64_t last_sec,
                 const std::function<void(int worker, int64_t sec)>& push,
                 const std::function<void(int64_t sec)>& advance);

/// Replays a recorded stream through a fresh OnlineService, bit-
/// deterministically: the clock is the sample stream, ingest threads are
/// shard-partitioned, each simulated second is fully ingested before it
/// is processed, and report timing fields are zeroed so replays are
/// byte-comparable. `catalog` seeds the archive's template texts.
/// `supervisor` (optional) closes the loop — repairs mutate its engine and
/// time-to-repair is measured against it.
ReplayResult RunReplay(const ReplayLog& log, const LogStore& catalog,
                       const ReplayOptions& options,
                       repair::RepairSupervisor* supervisor = nullptr,
                       const core::HistoryProvider* history = nullptr);

}  // namespace pinsql::online

#endif  // PINSQL_ONLINE_REPLAY_H_
