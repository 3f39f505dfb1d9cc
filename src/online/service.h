#ifndef PINSQL_ONLINE_SERVICE_H_
#define PINSQL_ONLINE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "logstore/log_store.h"
#include "online/instance_core.h"
#include "online/online_detector.h"
#include "online/scheduler.h"
#include "online/service_state.h"
#include "online/stream_ingestor.h"
#include "repair/supervisor.h"
#include "util/status.h"

namespace pinsql::online {

struct ServiceOptions {
  IngestorOptions ingestor;
  OnlineDetectorOptions detector;
  SchedulerOptions scheduler;
};

struct ServiceStats {
  IngestStats ingest;
  OnlineDetectorStats detector;
  SchedulerStats scheduler;
  /// Seconds the processing loop has consumed (Advance ticks).
  int64_t seconds_processed = 0;
  size_t retention_sweeps = 0;
  size_t records_retired = 0;
  /// Producer calls refused whole because the service was stopped or
  /// stopping. Mirrors the ingest layer's drop counters: a record that a
  /// producer handed to a closed service is counted, never half-applied.
  uint64_t records_rejected_stopped = 0;
  uint64_t samples_rejected_stopped = 0;
  uint64_t batches_rejected_stopped = 0;
};

/// The continuous online diagnosis service: one InstanceCore (ingestion,
/// streaming detection, archive retention), a DiagnosisScheduler with its
/// optional repair supervisor, and an ingest gate that orders producers
/// against Stop() — one start/stop lifecycle.
///
/// Threading: IngestRecord / IngestMetrics are safe from any number of
/// producer threads at any time between Start() and Stop(). Advance() is
/// the per-second processing loop — for every watermark second not yet
/// processed it folds the staged records, steps the core and polls the
/// scheduler; calls serialize on an internal mutex. Records are folded
/// only there (and in Stop), never in the background. The clock is
/// *virtual*: it is the metric watermark, so driving the service from a
/// recorded stream replays bit-identically (no wall-clock reads anywhere
/// on the processing path).
class OnlineService {
 public:
  explicit OnlineService(const ServiceOptions& options,
                         repair::RepairSupervisor* supervisor = nullptr,
                         const core::HistoryProvider* history = nullptr);
  ~OnlineService();

  OnlineService(const OnlineService&) = delete;
  OnlineService& operator=(const OnlineService&) = delete;

  /// The archive the folded records land in. Register the template catalog
  /// here before Start().
  LogStore* archive() { return core_.archive(); }

  /// The per-instance core. The durable service replays its journal into
  /// it and journals what producers hand it; other callers ingest through
  /// the gated entry points below.
  InstanceCore* core() { return &core_; }

  /// Starts accepting work.
  void Start();

  /// Graceful drain: closes the ingest gate, folds every staged record,
  /// processes every watermark second not yet processed, runs every queued
  /// diagnosis. Idempotent.
  void Stop();

  bool running() const { return running_; }

  /// Thread-safe producer entry points. Return false when the record /
  /// sample was dropped (and counted). After Stop() begins its drain these
  /// reject cleanly (counted as rejected_stopped) instead of stranding
  /// records in the staging queues.
  bool IngestRecord(const QueryLogRecord& record);
  bool IngestMetrics(const PerfSample& sample);

  /// Atomic multi-item ingest with respect to Stop(): either every item is
  /// offered to the ingestor before the drain starts, or the whole batch
  /// is rejected (returns false, counted). Per-item backpressure/late
  /// drops within an accepted batch still apply and are counted by the
  /// ingestor as usual.
  bool AppendBatch(const std::vector<QueryLogRecord>& records,
                   const std::vector<PerfSample>& samples);

  /// Processes every watermark second not yet processed. Returns the
  /// diagnosis outcomes completed by this call.
  std::vector<DiagnosisOutcome> Advance();

  /// Every completed diagnosis so far, in completion order.
  const std::vector<DiagnosisOutcome>& outcomes() const;

  const OnlineAnomalyDetector& detector() const { return core_.detector(); }
  const DiagnosisScheduler& scheduler() const { return scheduler_; }
  const StreamIngestor& ingestor() const { return core_.ingestor(); }

  ServiceStats stats() const;

  /// Captures the complete mutable state (components, counters, archive,
  /// catalog) as one consistent cut under the advance mutex. A service
  /// restored from it continues the stream bit-identically. Safe while
  /// producers race; call between Advance() ticks.
  ServiceState ExportState() const;

  /// Restores an exported state. The service must be stopped and shaped
  /// identically (same ingestor shard count / window) to the exporter;
  /// FailedPrecondition / InvalidArgument otherwise.
  Status ImportState(const ServiceState& state);

 private:
  /// Processes every watermark second not yet processed.
  void ProcessPendingSeconds(std::vector<DiagnosisOutcome>* completed);
  void ProcessSecond(int64_t sec, std::vector<DiagnosisOutcome>* completed);

  InstanceCore core_;
  DiagnosisScheduler scheduler_;

  /// Ingest gate ordering producers against Stop(): producers hold it
  /// shared for the duration of one call (or one whole batch); Stop()
  /// flips accepting_ under the exclusive side before draining, so every
  /// in-flight call/batch completes fully and every later one is rejected
  /// whole — a batch is never half-applied across the drain boundary.
  mutable std::shared_mutex ingest_gate_;
  bool accepting_ = false;  // guarded by ingest_gate_
  std::atomic<uint64_t> records_rejected_stopped_{0};
  std::atomic<uint64_t> samples_rejected_stopped_{0};
  std::atomic<uint64_t> batches_rejected_stopped_{0};

  mutable std::mutex advance_mu_;
  bool running_ = false;
};

}  // namespace pinsql::online

#endif  // PINSQL_ONLINE_SERVICE_H_
