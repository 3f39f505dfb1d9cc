#include "online/instance_core.h"

#include <algorithm>
#include <utility>

namespace pinsql::online {

InstanceCore::InstanceCore(uint32_t instance_id,
                           const IngestorOptions& ingestor,
                           const OnlineDetectorOptions& detector,
                           std::shared_ptr<IngestChunkPool> chunk_pool)
    : instance_id_(instance_id),
      ingestor_(ingestor, std::move(chunk_pool)),
      detector_(detector) {
  ingestor_.AttachArchive(&archive_);
}

SecondRange InstanceCore::Unprocessed(int64_t cap) const {
  const auto mark = ingestor_.watermark_sec();
  if (!mark.has_value()) return {};
  return {processed_any_ ? last_processed_sec_ + 1 : *mark,
          std::min(*mark, cap)};
}

SecondStep InstanceCore::Step(int64_t sec,
                              std::optional<int64_t> open_window_floor_ms) {
  double value = std::numeric_limits<double>::quiet_NaN();
  if (auto sample = ingestor_.SampleAt(sec); sample.has_value()) {
    value = sample->active_session;
  }
  SecondStep step;
  step.sec = sec;
  step.trigger = detector_.Observe(sec, value);
  if (step.trigger.has_value()) step.trigger->instance_id = instance_id_;
  step.in_run = detector_.in_run();

  if (sec % kRetentionEverySec == 0) {
    records_retired_ += archive_.TrimExpiredKeeping(
        sec * 1000, KeepFromMs(open_window_floor_ms));
    ++retention_sweeps_;
  }

  last_processed_sec_ = sec;
  processed_any_ = true;
  ++seconds_processed_;
  return step;
}

int64_t InstanceCore::KeepFromMs(
    std::optional<int64_t> open_window_floor_ms) const {
  // Never trim a record an open sliding window or a pending diagnosis
  // still needs.
  int64_t keep_from_ms =
      open_window_floor_ms.value_or(std::numeric_limits<int64_t>::max());
  if (auto floor = ingestor_.window_floor_sec(); floor.has_value()) {
    keep_from_ms = std::min(keep_from_ms, *floor * 1000);
  }
  return keep_from_ms;
}

void InstanceCore::ExportState(ServiceState* state) const {
  state->ingestor = ingestor_.ExportState();
  state->detector = detector_.ExportState();
  state->processed_any = processed_any_;
  state->last_processed_sec = last_processed_sec_;
  state->retention_sweeps = retention_sweeps_;
  state->records_retired = records_retired_;
  state->seconds_processed = seconds_processed_;
  state->archive_records = archive_.SortedRecords();
  state->catalog.assign(archive_.catalog().begin(), archive_.catalog().end());
  std::sort(state->catalog.begin(), state->catalog.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

Status InstanceCore::ImportState(const ServiceState& state) {
  if (Status status = ingestor_.ImportState(state.ingestor); !status.ok()) {
    return status;
  }
  detector_.ImportState(state.detector);
  processed_any_ = state.processed_any;
  last_processed_sec_ = state.last_processed_sec;
  retention_sweeps_ = state.retention_sweeps;
  records_retired_ = state.records_retired;
  seconds_processed_ = state.seconds_processed;
  archive_.ReplaceRecords(state.archive_records);
  for (const auto& [sql_id, entry] : state.catalog) {
    archive_.RegisterTemplate(sql_id, entry);
  }
  return Status::OK();
}

}  // namespace pinsql::online
