#ifndef PINSQL_STORE_DURABLE_SERVICE_H_
#define PINSQL_STORE_DURABLE_SERVICE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "online/replay.h"
#include "online/service.h"
#include "repair/events.h"
#include "store/checkpoint.h"
#include "store/env.h"
#include "store/instance_journal.h"
#include "store/wal.h"
#include "util/status.h"

namespace pinsql::store {

struct DurableServiceOptions {
  online::ServiceOptions service;
  WalOptions wal;
  /// Take a checkpoint every this many watermark seconds (0 disables
  /// periodic checkpoints; a final one is still written on Stop()).
  int64_t checkpoint_every_sec = 300;
};

/// Checkpoint files retained on disk. Two survives one corrupt newest
/// checkpoint: recovery falls back and replays a longer WAL suffix.
inline constexpr size_t kCheckpointsToKeep = 2;

/// Accounting of one Open(): what was recovered and from where.
struct RecoveryStats {
  bool checkpoint_loaded = false;
  uint64_t checkpoint_counter = 0;
  size_t checkpoints_corrupt_skipped = 0;
  WalScanStats wal;
  /// Wall time the whole recovery (load + replay) took.
  double recovery_ms = 0.0;
};

struct DurableStats {
  online::ServiceStats service;
  WalWriterStats wal;
  uint64_t checkpoints_written = 0;
  uint64_t segments_deleted = 0;
  /// Records accepted but not yet journaled (flushed before the next
  /// sample frame / checkpoint / Stop).
  size_t pending_journal_records = 0;
};

/// Crash-recoverable wrapper around OnlineService: every accepted record,
/// sample, template registration and repair audit event is journaled to a
/// CRC-checksummed segment WAL, and the full service state is periodically
/// checkpointed. Open() on a data dir that died mid-stream (kill -9
/// included) reconstructs the exact pre-crash state — checkpoint first,
/// then the WAL suffix replayed through the normal ingest path — so the
/// recovered service's diagnosis fingerprint is byte-identical to an
/// uninterrupted run over the same durable input. See DESIGN.md §11.
///
/// Processing discipline: all entry points serialize on one mutex, and
/// every sample triggers an Advance(). This fixes the fold/process
/// interleaving to exactly what the WAL records — the property the
/// byte-identical recovery contract rests on. Durability of an accepted
/// record follows the fsync policy at the *next sample* frame, since
/// records journal as one batch frame per second (see InstanceJournal).
class DurableOnlineService {
 public:
  /// Opens (creating the directory if needed) and recovers `data_dir`,
  /// then starts the service. `env` defaults to the POSIX filesystem;
  /// tests substitute a fault-injecting Env.
  static StatusOr<std::unique_ptr<DurableOnlineService>> Open(
      const DurableServiceOptions& options, const std::string& data_dir,
      Env* env = nullptr, repair::RepairSupervisor* supervisor = nullptr,
      const core::HistoryProvider* history = nullptr);

  ~DurableOnlineService();

  DurableOnlineService(const DurableOnlineService&) = delete;
  DurableOnlineService& operator=(const DurableOnlineService&) = delete;

  /// Registers a template in the archive catalog and journals it. Use this
  /// instead of archive()->RegisterTemplate so registrations survive a
  /// crash before the next checkpoint.
  void RegisterTemplate(uint64_t sql_id, const TemplateCatalogEntry& entry);

  /// Ingests one record: accepted records are buffered for the journal and
  /// written as one batch frame before the next sample frame. Returns
  /// false when the service dropped it (backpressure) — dropped records
  /// are never journaled, so replay sees exactly the accepted stream.
  bool IngestRecord(const QueryLogRecord& record);

  /// Ingests one per-second sample: journals the pending record batch and
  /// the sample, advances the service through the new watermark second(s),
  /// journals any repair events the advance produced, and takes a periodic
  /// checkpoint when one is due. Returns the diagnosis outcomes completed
  /// by this call.
  std::vector<online::DiagnosisOutcome> IngestMetrics(
      const online::PerfSample& sample);

  /// Graceful drain: stops the service (processing every pending second
  /// and queued diagnosis), flushes and fsyncs the journal, writes a final
  /// checkpoint and closes the WAL. Idempotent.
  Status Stop();

  /// Forces a checkpoint now (also prunes old checkpoints and deletes
  /// aged-out, checkpoint-covered WAL segments).
  Status Checkpoint();

  LogStore* archive() { return service_->archive(); }
  const online::OnlineService& service() const { return *service_; }
  const std::vector<online::DiagnosisOutcome>& outcomes() const {
    return service_->outcomes();
  }

  /// Complete repair audit trail: recovered events plus everything
  /// observed since.
  const std::vector<repair::RepairEvent>& audit() const { return audit_; }

  const RecoveryStats& recovery() const { return recovery_; }
  DurableStats stats() const;

  /// Deterministic digest of every diagnosis produced so far
  /// (online::InstanceFingerprint, as ReplayResult::Fingerprint) — the
  /// byte-identical recovery contract is stated over this digest.
  std::string Fingerprint() const;

 private:
  DurableOnlineService(const DurableServiceOptions& options,
                       std::string data_dir, Env* env);

  Status Recover(repair::RepairSupervisor* supervisor,
                 const core::HistoryProvider* history);
  Status CheckpointLocked();
  void JournalNewRepairEventsLocked();

  DurableServiceOptions options_;
  std::string data_dir_;
  Env* env_;

  mutable std::mutex mu_;
  std::unique_ptr<online::OnlineService> service_;
  std::unique_ptr<InstanceJournal> journal_;
  repair::RepairSupervisor* supervisor_ = nullptr;
  bool stopped_ = false;

  std::vector<repair::RepairEvent> audit_;
  /// Supervisor events already journaled (index into supervisor->events()).
  size_t supervisor_events_seen_ = 0;

  uint64_t checkpoint_counter_ = 0;
  /// Periodic-checkpoint cadence anchor (watermark second of the last
  /// checkpoint, or of recovery / the first sample).
  int64_t last_checkpoint_sec_ = 0;
  bool cadence_anchored_ = false;
  /// LSNs of the retained checkpoints, oldest first: segment deletion must
  /// stay covered by the *oldest* one so any fallback can still replay.
  std::deque<WalPosition> checkpoint_lsns_;
  uint64_t checkpoints_written_ = 0;
  uint64_t segments_deleted_ = 0;

  RecoveryStats recovery_;
};

}  // namespace pinsql::store

#endif  // PINSQL_STORE_DURABLE_SERVICE_H_
