#include "online/service.h"

#include "obs/metrics.h"

namespace pinsql::online {

OnlineService::OnlineService(const ServiceOptions& options,
                             repair::RepairSupervisor* supervisor,
                             const core::HistoryProvider* history)
    : core_(/*instance_id=*/0, options.ingestor, options.detector),
      scheduler_(&core_.ingestor(), core_.archive(), options.scheduler,
                 supervisor, history) {}

OnlineService::~OnlineService() { Stop(); }

void OnlineService::Start() {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (running_) return;
  running_ = true;
  std::unique_lock<std::shared_mutex> gate(ingest_gate_);
  accepting_ = true;
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
  std::lock_guard<std::mutex> lock(advance_mu_);
  // Drain: fold everything still staged, process every watermark second,
  // then force the queued diagnoses that were not yet due.
  core_.ingestor().Pump();
  std::vector<DiagnosisOutcome> completed;
  ProcessPendingSeconds(&completed);
  scheduler_.Drain();
  running_ = false;
}

bool OnlineService::IngestRecord(const QueryLogRecord& record) {
  std::shared_lock<std::shared_mutex> gate(ingest_gate_);
  if (!accepting_) {
    records_rejected_stopped_.fetch_add(1, std::memory_order_relaxed);
    PINSQL_OBS_COUNT("online.service.records_rejected_stopped", 1);
    return false;
  }
  return core_.ingestor().IngestRecord(record);
}

bool OnlineService::IngestMetrics(const PerfSample& sample) {
  std::shared_lock<std::shared_mutex> gate(ingest_gate_);
  if (!accepting_) {
    samples_rejected_stopped_.fetch_add(1, std::memory_order_relaxed);
    PINSQL_OBS_COUNT("online.service.samples_rejected_stopped", 1);
    return false;
  }
  return core_.ingestor().IngestMetrics(sample);
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
  core_.ingestor().IngestRecords(records);
  for (const PerfSample& sample : samples) {
    core_.ingestor().IngestMetrics(sample);
  }
  return true;
}

std::vector<DiagnosisOutcome> OnlineService::Advance() {
  std::lock_guard<std::mutex> lock(advance_mu_);
  std::vector<DiagnosisOutcome> completed;
  if (running_) ProcessPendingSeconds(&completed);
  return completed;
}

void OnlineService::ProcessPendingSeconds(
    std::vector<DiagnosisOutcome>* completed) {
  const SecondRange range = core_.Unprocessed();
  for (int64_t sec = range.first; sec <= range.last; ++sec) {
    ProcessSecond(sec, completed);
  }
}

void OnlineService::ProcessSecond(int64_t sec,
                                  std::vector<DiagnosisOutcome>* completed) {
  // One pump per processed second: everything staged before this second's
  // sample arrived is folded before the window could be snapshotted.
  core_.ingestor().Pump();
  const SecondStep step = core_.Step(sec, scheduler_.open_window_floor_ms());
  if (step.trigger.has_value()) scheduler_.OnTrigger(*step.trigger);
  if (step.in_run) scheduler_.NoteAnomalousActivity(sec);

  auto outcomes = scheduler_.Poll(sec);
  completed->insert(completed->end(), outcomes.begin(), outcomes.end());
  PINSQL_OBS_COUNT("online.seconds_processed", 1);
}

ServiceState OnlineService::ExportState() const {
  std::lock_guard<std::mutex> lock(advance_mu_);
  ServiceState state;
  core_.ExportState(&state);
  state.scheduler = scheduler_.ExportState();
  return state;
}

Status OnlineService::ImportState(const ServiceState& state) {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (running_) {
    return Status::FailedPrecondition(
        "ImportState requires a stopped service");
  }
  if (Status status = core_.ImportState(state); !status.ok()) return status;
  scheduler_.ImportState(state.scheduler);
  return Status::OK();
}

const std::vector<DiagnosisOutcome>& OnlineService::outcomes() const {
  return scheduler_.outcomes();
}

ServiceStats OnlineService::stats() const {
  std::lock_guard<std::mutex> lock(advance_mu_);
  ServiceStats stats;
  stats.ingest = core_.ingestor().stats();
  stats.detector = core_.detector().stats();
  stats.scheduler = scheduler_.stats();
  stats.seconds_processed = core_.seconds_processed();
  stats.retention_sweeps = static_cast<size_t>(core_.retention_sweeps());
  stats.records_retired = static_cast<size_t>(core_.records_retired());
  stats.records_rejected_stopped =
      records_rejected_stopped_.load(std::memory_order_relaxed);
  stats.samples_rejected_stopped =
      samples_rejected_stopped_.load(std::memory_order_relaxed);
  stats.batches_rejected_stopped =
      batches_rejected_stopped_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace pinsql::online
