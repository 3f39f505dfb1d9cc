#ifndef PINSQL_ONLINE_INSTANCE_CORE_H_
#define PINSQL_ONLINE_INSTANCE_CORE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "logstore/log_store.h"
#include "online/online_detector.h"
#include "online/service_state.h"
#include "online/stream_ingestor.h"
#include "util/status.h"

namespace pinsql::online {

/// Archive retention sweep cadence, in processed seconds. A sweep trims
/// the archive to LogStore::kRetentionMs behind the processed second,
/// keeping what open windows and pending diagnoses still need.
inline constexpr int64_t kRetentionEverySec = 60;

/// What one processed second produced.
struct SecondStep {
  int64_t sec = 0;
  /// A confirmed trigger, stamped with the core's instance id.
  std::optional<AnomalyTrigger> trigger;
  /// The detector has a flagged run open after this second.
  bool in_run = false;
};

/// The seconds a core has not processed yet, [first, last]; empty when
/// first > last.
struct SecondRange {
  int64_t first = 0;
  int64_t last = -1;
  bool empty() const { return first > last; }
};

/// The per-instance half of online diagnosis, shared by the single-instance
/// service and every fleet instance: one archive, one StreamIngestor that
/// folds into it, one streaming detector, and the bookkeeping of which
/// watermark seconds the detector has stepped. The virtual clock is the
/// metric watermark: Step() reads the sample of a second, feeds the
/// detector, and every kRetentionEverySec seconds sweeps the archive.
///
/// Threading: producers may ingest through ingestor() from any thread.
/// Step, the export/import pair and the counters belong to one thread at a
/// time (the owning service serializes them). Pumping is the caller's
/// choice of cadence: the single-instance service pumps before every
/// second, the fleet once per instance step.
class InstanceCore {
 public:
  /// `chunk_pool` shares staging capacity across cores (nullptr gives the
  /// ingestor a private pool).
  InstanceCore(uint32_t instance_id, const IngestorOptions& ingestor,
               const OnlineDetectorOptions& detector,
               std::shared_ptr<IngestChunkPool> chunk_pool = nullptr);

  InstanceCore(const InstanceCore&) = delete;
  InstanceCore& operator=(const InstanceCore&) = delete;

  uint32_t instance_id() const { return instance_id_; }
  LogStore* archive() { return &archive_; }
  StreamIngestor& ingestor() { return ingestor_; }
  const StreamIngestor& ingestor() const { return ingestor_; }
  const OnlineAnomalyDetector& detector() const { return detector_; }

  /// The watermark seconds up to `cap` not yet stepped: from the one after
  /// the last processed second (or the watermark itself, before the first
  /// step) through min(watermark, cap). Empty before the first sample.
  SecondRange Unprocessed(
      int64_t cap = std::numeric_limits<int64_t>::max()) const;

  /// Processes second `sec`: reads its sample (a gap when absent), steps
  /// the detector, and on a sweep second trims the archive to the
  /// retention horizon, keeping everything from KeepFromMs() on.
  SecondStep Step(int64_t sec, std::optional<int64_t> open_window_floor_ms);

  /// The oldest millisecond retention must keep whatever its age: the
  /// ingestor's window floor, lowered to `open_window_floor_ms` (the oldest
  /// millisecond a pending diagnosis still needs). The archive sweep and
  /// the durable journal's segment retention both honor it.
  int64_t KeepFromMs(std::optional<int64_t> open_window_floor_ms) const;

  int64_t seconds_processed() const { return seconds_processed_; }
  int64_t retention_sweeps() const { return retention_sweeps_; }
  uint64_t records_retired() const { return records_retired_; }

  /// Fills every ServiceState field the core owns (all but the scheduler).
  void ExportState(ServiceState* state) const;
  /// Restores the core's part of `state`; InvalidArgument when the
  /// ingestor is shaped differently from the exporter's.
  Status ImportState(const ServiceState& state);

 private:
  uint32_t instance_id_;
  LogStore archive_;
  StreamIngestor ingestor_;
  OnlineAnomalyDetector detector_;

  bool processed_any_ = false;
  int64_t last_processed_sec_ = 0;
  int64_t seconds_processed_ = 0;
  int64_t retention_sweeps_ = 0;
  uint64_t records_retired_ = 0;
};

}  // namespace pinsql::online

#endif  // PINSQL_ONLINE_INSTANCE_CORE_H_
