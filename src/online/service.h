#ifndef PINSQL_ONLINE_SERVICE_H_
#define PINSQL_ONLINE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "logstore/log_store.h"
#include "online/online_detector.h"
#include "online/scheduler.h"
#include "online/service_state.h"
#include "online/stream_ingestor.h"
#include "repair/supervisor.h"
#include "util/status.h"

namespace pinsql::online {

/// Archive retention sweep cadence, in processed seconds. A sweep trims
/// the archive to LogStore::kRetentionMs behind the processed second,
/// keeping what open windows and in-flight diagnoses still need.
inline constexpr int64_t kRetentionEverySec = 60;

struct ServiceOptions {
  IngestorOptions ingestor;
  OnlineDetectorOptions detector;
  SchedulerOptions scheduler;
  /// Real-time mode: a background thread keeps pumping the ingestor's
  /// staging queues so producers never see deep queues between Advance()
  /// calls. Replay leaves this off — Advance() pumps deterministically.
  bool background_pump = false;
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

/// The continuous online diagnosis service: glues ingestion, streaming
/// detection, scheduled diagnosis and supervised repair into one
/// start/stop lifecycle.
///
/// Threading: IngestRecord / IngestMetrics are safe from any number of
/// producer threads at any time between Start() and Stop(). Advance() is
/// the per-second processing loop — it drains staged records, feeds the
/// detector one sample per watermark second, polls the scheduler and
/// applies retention; calls serialize on an internal mutex. The clock is
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
  LogStore* archive() { return &archive_; }

  /// Starts accepting work (and the pump thread, in real-time mode).
  void Start();

  /// Graceful drain: stops the pump thread, folds every staged record,
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

  const OnlineAnomalyDetector& detector() const { return detector_; }
  const DiagnosisScheduler& scheduler() const { return scheduler_; }
  const StreamIngestor& ingestor() const { return ingestor_; }

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
  void ProcessSecond(int64_t sec, std::vector<DiagnosisOutcome>* completed);
  void PumpLoop();

  ServiceOptions options_;
  LogStore archive_;
  StreamIngestor ingestor_;
  OnlineAnomalyDetector detector_;
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
  bool processed_any_ = false;
  int64_t last_processed_sec_ = 0;
  int64_t retention_sweeps_ = 0;
  size_t records_retired_ = 0;
  int64_t seconds_processed_ = 0;

  std::mutex pump_mu_;
  std::condition_variable pump_cv_;
  bool pump_stop_ = false;
  std::thread pump_thread_;
};

}  // namespace pinsql::online

#endif  // PINSQL_ONLINE_SERVICE_H_
