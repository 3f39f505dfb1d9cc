#include "online/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/metrics.h"

namespace pinsql::online {

OnlineService::OnlineService(const ServiceOptions& options,
                             repair::RepairSupervisor* supervisor,
                             const core::HistoryProvider* history)
    : options_(options),
      ingestor_(options.ingestor),
      detector_(options.detector),
      scheduler_(&ingestor_, &archive_, options.scheduler, supervisor,
                 history) {
  ingestor_.AttachArchive(&archive_);
}

OnlineService::~OnlineService() { Stop(); }

void OnlineService::Start() {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (running_) return;
  running_ = true;
  {
    std::unique_lock<std::shared_mutex> gate(ingest_gate_);
    accepting_ = true;
  }
  if (options_.background_pump) {
    {
      std::lock_guard<std::mutex> pump_lock(pump_mu_);
      pump_stop_ = false;
    }
    pump_thread_ = std::thread(&OnlineService::PumpLoop, this);
  }
}

void OnlineService::Stop() {
  {
    std::lock_guard<std::mutex> lock(advance_mu_);
    if (!running_) return;
  }
  // Close the ingest gate first: the exclusive acquisition waits for every
  // in-flight producer call (and whole AppendBatch) to finish, and flips
  // accepting_ so later calls reject cleanly. Only then is the drain below
  // a complete, final cut — nothing can arrive behind it and be stranded
  // in the staging queues.
  {
    std::unique_lock<std::shared_mutex> gate(ingest_gate_);
    accepting_ = false;
  }
  if (pump_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> pump_lock(pump_mu_);
      pump_stop_ = true;
    }
    pump_cv_.notify_all();
    pump_thread_.join();
  }
  std::lock_guard<std::mutex> lock(advance_mu_);
  // Drain: fold everything still staged, process every watermark second,
  // then force the queued diagnoses that were not yet due.
  ingestor_.Pump();
  std::vector<DiagnosisOutcome> completed;
  if (auto mark = ingestor_.watermark_sec(); mark.has_value()) {
    const int64_t from =
        processed_any_ ? last_processed_sec_ + 1 : *mark;
    for (int64_t sec = from; sec <= *mark; ++sec) {
      ProcessSecond(sec, &completed);
    }
  }
  scheduler_.Drain();
  running_ = false;
}

void OnlineService::PumpLoop() {
  std::unique_lock<std::mutex> lock(pump_mu_);
  while (!pump_stop_) {
    lock.unlock();
    ingestor_.Pump();
    lock.lock();
    pump_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

bool OnlineService::IngestRecord(const QueryLogRecord& record) {
  std::shared_lock<std::shared_mutex> gate(ingest_gate_);
  if (!accepting_) {
    records_rejected_stopped_.fetch_add(1, std::memory_order_relaxed);
    PINSQL_OBS_COUNT("online.service.records_rejected_stopped", 1);
    return false;
  }
  return ingestor_.IngestRecord(record);
}

bool OnlineService::IngestMetrics(const PerfSample& sample) {
  std::shared_lock<std::shared_mutex> gate(ingest_gate_);
  if (!accepting_) {
    samples_rejected_stopped_.fetch_add(1, std::memory_order_relaxed);
    PINSQL_OBS_COUNT("online.service.samples_rejected_stopped", 1);
    return false;
  }
  return ingestor_.IngestMetrics(sample);
}

bool OnlineService::AppendBatch(const std::vector<QueryLogRecord>& records,
                                const std::vector<PerfSample>& samples) {
  // The shared lock spans the whole batch, so Stop()'s exclusive
  // acquisition can only observe it fully applied or not started.
  std::shared_lock<std::shared_mutex> gate(ingest_gate_);
  if (!accepting_) {
    records_rejected_stopped_.fetch_add(records.size(),
                                        std::memory_order_relaxed);
    samples_rejected_stopped_.fetch_add(samples.size(),
                                        std::memory_order_relaxed);
    batches_rejected_stopped_.fetch_add(1, std::memory_order_relaxed);
    PINSQL_OBS_COUNT("online.service.batches_rejected_stopped", 1);
    return false;
  }
  ingestor_.IngestRecords(records);
  for (const PerfSample& sample : samples) {
    ingestor_.IngestMetrics(sample);
  }
  return true;
}

std::vector<DiagnosisOutcome> OnlineService::Advance() {
  std::lock_guard<std::mutex> lock(advance_mu_);
  std::vector<DiagnosisOutcome> completed;
  if (!running_) return completed;
  const auto mark = ingestor_.watermark_sec();
  if (!mark.has_value()) return completed;
  const int64_t from = processed_any_ ? last_processed_sec_ + 1 : *mark;
  for (int64_t sec = from; sec <= *mark; ++sec) {
    ProcessSecond(sec, &completed);
  }
  return completed;
}

void OnlineService::ProcessSecond(int64_t sec,
                                  std::vector<DiagnosisOutcome>* completed) {
  // One pump per processed second: everything staged before this second's
  // sample arrived is folded before the window could be snapshotted.
  ingestor_.Pump();

  double value = std::numeric_limits<double>::quiet_NaN();
  if (auto sample = ingestor_.SampleAt(sec); sample.has_value()) {
    value = sample->active_session;
  }
  if (auto trigger = detector_.Observe(sec, value); trigger.has_value()) {
    scheduler_.OnTrigger(*trigger);
  }
  if (detector_.in_run()) scheduler_.NoteAnomalousActivity(sec);

  auto outcomes = scheduler_.Poll(sec);
  completed->insert(completed->end(), outcomes.begin(), outcomes.end());

  if (sec % kRetentionEverySec == 0) {
    // Never trim a record an open sliding window or an in-flight diagnosis
    // still needs.
    int64_t keep_from_ms = std::numeric_limits<int64_t>::max();
    if (auto floor = ingestor_.window_floor_sec(); floor.has_value()) {
      keep_from_ms = *floor * 1000;
    }
    if (auto floor = scheduler_.open_window_floor_ms(); floor.has_value()) {
      keep_from_ms = std::min(keep_from_ms, *floor);
    }
    records_retired_ += archive_.TrimExpiredKeeping(sec * 1000, keep_from_ms);
    ++retention_sweeps_;
  }

  last_processed_sec_ = sec;
  processed_any_ = true;
  ++seconds_processed_;
  PINSQL_OBS_COUNT("online.seconds_processed", 1);
}

ServiceState OnlineService::ExportState() const {
  std::lock_guard<std::mutex> lock(advance_mu_);
  ServiceState state;
  state.ingestor = ingestor_.ExportState();
  state.detector = detector_.ExportState();
  state.scheduler = scheduler_.ExportState();
  state.processed_any = processed_any_;
  state.last_processed_sec = last_processed_sec_;
  state.retention_sweeps = retention_sweeps_;
  state.records_retired = records_retired_;
  state.seconds_processed = seconds_processed_;
  state.archive_records = archive_.SortedRecords();
  state.catalog.assign(archive_.catalog().begin(), archive_.catalog().end());
  std::sort(state.catalog.begin(), state.catalog.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return state;
}

Status OnlineService::ImportState(const ServiceState& state) {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (running_) {
    return Status::FailedPrecondition(
        "ImportState requires a stopped service");
  }
  if (Status status = ingestor_.ImportState(state.ingestor); !status.ok()) {
    return status;
  }
  detector_.ImportState(state.detector);
  scheduler_.ImportState(state.scheduler);
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

const std::vector<DiagnosisOutcome>& OnlineService::outcomes() const {
  return scheduler_.outcomes();
}

ServiceStats OnlineService::stats() const {
  std::lock_guard<std::mutex> lock(advance_mu_);
  ServiceStats stats;
  stats.ingest = ingestor_.stats();
  stats.detector = detector_.stats();
  stats.scheduler = scheduler_.stats();
  stats.seconds_processed = seconds_processed_;
  stats.retention_sweeps = static_cast<size_t>(retention_sweeps_);
  stats.records_retired = records_retired_;
  stats.records_rejected_stopped =
      records_rejected_stopped_.load(std::memory_order_relaxed);
  stats.samples_rejected_stopped =
      samples_rejected_stopped_.load(std::memory_order_relaxed);
  stats.batches_rejected_stopped =
      batches_rejected_stopped_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace pinsql::online
