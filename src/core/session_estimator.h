#ifndef PINSQL_CORE_SESSION_ESTIMATOR_H_
#define PINSQL_CORE_SESSION_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <unordered_map>

#include "logstore/log_store.h"
#include "pipeline/template_metrics.h"
#include "ts/time_series.h"
#include "util/thread_pool.h"

namespace pinsql::core {

/// Which estimator to run (Table III compares all three).
enum class SessionEstimatorMode {
  /// The paper's method with K-bucket SHOW STATUS offset localization.
  kBucketed,
  /// Expectation over the whole second (no offset localization).
  kNoBuckets,
  /// Total response time per second as a proxy ("Estimate by RT").
  kResponseTime,
};

struct SessionEstimatorOptions {
  SessionEstimatorMode mode = SessionEstimatorMode::kBucketed;
  /// K: buckets per second (paper uses 10).
  int num_buckets = 10;
};

/// Output: estimated instance-level active session plus the individual
/// active session of every template, aligned on [ts, te) at 1 s.
struct SessionEstimate {
  TimeSeries total;
  std::unordered_map<uint64_t, TimeSeries> per_template;
};

/// Estimates individual active sessions from query logs (paper Sec. IV-C).
///
/// Each query q is active during [t(q), t(q) + tres(q)); the probability
/// that the hidden SHOW STATUS instant inside period p observes q is
///   P(observed(p, q)) = |p ∩ [t(q), t(q)+tres(q))| / |p|.
/// In bucketed mode each second is split into K buckets; the bucket whose
/// expected total session is closest to the monitor's observed value is
/// taken as the sampling instant's bucket (sel_t), and the per-template
/// session is the sum of P(observed(sel_t, q)) over the template's
/// queries. `observed_session` must cover [ts_sec, te_sec).
///
/// Cost is O(records·K + n·K + templates·n) for an n-second window: the
/// overlap math runs only for the first and last second of each record's
/// span, and the whole seconds in between (occupancy exactly one in every
/// bucket) are added through difference arrays. Every record of `logs`
/// counts, wherever it arrived; Diagnose passes the window's records plus
/// a look-back for queries still running into it.
///
/// A non-null `pool` parallelizes the expectation pass (each task owns a
/// contiguous block of seconds) and the per-template pass (each task owns
/// one template); every output cell sums its fractional contributions in
/// record order and then adds its whole-second count, whatever the
/// sharding, so the estimate is bit-identical to the single-threaded run.
SessionEstimate EstimateSessions(std::span<const QueryLogRecord> logs,
                                 const TimeSeries& observed_session,
                                 int64_t ts_sec, int64_t te_sec,
                                 const SessionEstimatorOptions& options,
                                 util::ThreadPool* pool = nullptr);

}  // namespace pinsql::core

#endif  // PINSQL_CORE_SESSION_ESTIMATOR_H_
