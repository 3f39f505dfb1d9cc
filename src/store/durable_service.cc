#include "store/durable_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace pinsql::store {

DurableOnlineService::DurableOnlineService(const DurableServiceOptions& options,
                                           std::string data_dir, Env* env)
    : options_(options), data_dir_(std::move(data_dir)), env_(env) {}

DurableOnlineService::~DurableOnlineService() { Stop(); }

StatusOr<std::unique_ptr<DurableOnlineService>> DurableOnlineService::Open(
    const DurableServiceOptions& options, const std::string& data_dir,
    Env* env, repair::RepairSupervisor* supervisor,
    const core::HistoryProvider* history) {
  if (env == nullptr) env = PosixEnv();
  std::unique_ptr<DurableOnlineService> service(
      new DurableOnlineService(options, data_dir, env));
  if (Status status = env->CreateDirs(data_dir); !status.ok()) return status;
  if (Status status = service->Recover(supervisor, history); !status.ok()) {
    // Nothing was opened to drain or checkpoint: the half-built service
    // must not run Stop() from its destructor.
    service->stopped_ = true;
    return status;
  }
  return service;
}

Status DurableOnlineService::Recover(repair::RepairSupervisor* supervisor,
                                     const core::HistoryProvider* history) {
  const auto t0 = std::chrono::steady_clock::now();
  supervisor_ = supervisor;
  service_ = std::make_unique<online::OnlineService>(options_.service,
                                                     supervisor, history);

  WalPosition start;
  auto loaded = LoadLatestCheckpoint(env_, data_dir_);
  if (loaded.ok()) {
    if (Status status = service_->ImportState(loaded->data.service);
        !status.ok()) {
      return status;
    }
    audit_ = std::move(loaded->data.audit);
    start = loaded->data.lsn;
    checkpoint_counter_ = loaded->counter;
    checkpoint_lsns_.push_back(start);
    recovery_.checkpoint_loaded = true;
    recovery_.checkpoint_counter = loaded->counter;
    recovery_.checkpoints_corrupt_skipped = loaded->corrupt_skipped;
    // A corrupt newer sibling must not win a future recovery over the
    // checkpoint that actually validated.
    DeleteOtherCheckpoints(env_, data_dir_, loaded->counter);
  } else if (loaded.status().code() == StatusCode::kNotFound) {
    // No usable checkpoint (fresh dir, or every file corrupt): full WAL
    // replay. Whatever unusable files exist are swept.
    recovery_.checkpoints_corrupt_skipped =
        PruneCheckpoints(env_, data_dir_, 0);
  } else {
    return loaded.status();
  }

  service_->Start();
  journal_ = std::make_unique<InstanceJournal>(env_, data_dir_, options_.wal,
                                               service_->core());

  // Replay the WAL suffix into the core, one Advance per sample frame —
  // exactly the live processing discipline.
  Status replay_status = journal_->Scan(
      start,
      [this](const WalFrame& frame) {
        journal_->Apply(frame);
        if (frame.kind == FrameKind::kSample) {
          service_->Advance();
        } else if (frame.kind == FrameKind::kRepairEvent) {
          audit_.push_back(frame.event);
        }
      },
      &recovery_.wal);
  if (!replay_status.ok()) return replay_status;
  if (Status status = journal_->Open(); !status.ok()) return status;
  journal_->writer()->AdoptSealed(recovery_.wal.segments);

  if (auto mark = service_->ingestor().watermark_sec(); mark.has_value()) {
    last_checkpoint_sec_ = *mark;
    cadence_anchored_ = true;
  }
  // Events the replayed diagnoses pushed into a fresh supervisor are
  // already in the audit trail via their WAL frames; don't journal them
  // twice.
  supervisor_events_seen_ =
      supervisor_ != nullptr ? supervisor_->events().size() : 0;

  recovery_.recovery_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  PINSQL_OBS_GAUGE_SET("store.recovery_ms", recovery_.recovery_ms);
  PINSQL_OBS_COUNT("store.frames_corrupt_detected",
                   static_cast<uint64_t>(recovery_.wal.frames_corrupt +
                                         recovery_.wal.frames_malformed +
                                         recovery_.wal.frames_time_rejected));
  return Status::OK();
}

void DurableOnlineService::RegisterTemplate(uint64_t sql_id,
                                            const TemplateCatalogEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  journal_->RegisterTemplate(sql_id, entry);
}

bool DurableOnlineService::IngestRecord(const QueryLogRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return false;
  // Only *accepted* records reach the journal, so a replay never
  // re-litigates a backpressure drop.
  return journal_->IngestRecords({&record, 1}) == 1;
}

std::vector<online::DiagnosisOutcome> DurableOnlineService::IngestMetrics(
    const online::PerfSample& sample) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return {};
  if (!journal_->IngestMetrics(sample)) return {};
  std::vector<online::DiagnosisOutcome> completed = service_->Advance();
  JournalNewRepairEventsLocked();
  if (!cadence_anchored_) {
    last_checkpoint_sec_ = sample.sec;
    cadence_anchored_ = true;
  } else if (options_.checkpoint_every_sec > 0 &&
             sample.sec - last_checkpoint_sec_ >=
                 options_.checkpoint_every_sec) {
    CheckpointLocked();
  }
  return completed;
}

void DurableOnlineService::JournalNewRepairEventsLocked() {
  if (supervisor_ == nullptr) return;
  const auto& events = supervisor_->events();
  for (size_t i = supervisor_events_seen_; i < events.size(); ++i) {
    journal_->writer()->AppendRepairEvent(events[i]);
    audit_.push_back(events[i]);
  }
  supervisor_events_seen_ = events.size();
}

Status DurableOnlineService::CheckpointLocked() {
  if (Status status = journal_->Flush(); !status.ok()) return status;

  CheckpointData data;
  data.lsn = journal_->writer()->position();
  data.service = service_->ExportState();
  data.audit = audit_;
  ++checkpoint_counter_;
  if (Status status =
          WriteCheckpoint(env_, data_dir_, checkpoint_counter_, data);
      !status.ok()) {
    return status;
  }
  ++checkpoints_written_;
  checkpoint_lsns_.push_back(data.lsn);
  while (checkpoint_lsns_.size() > kCheckpointsToKeep) {
    checkpoint_lsns_.pop_front();
  }
  PruneCheckpoints(env_, data_dir_, kCheckpointsToKeep);

  // Retire WAL segments that retention no longer needs *and* the oldest
  // retained checkpoint already covers — a fallback recovery must always
  // find its full replay suffix on disk.
  if (auto mark = service_->ingestor().watermark_sec(); mark.has_value()) {
    const int64_t keep_from_ms = service_->core()->KeepFromMs(
        service_->scheduler().open_window_floor_ms());
    const int64_t cutoff_ms =
        std::min(*mark * 1000 - LogStore::kRetentionMs, keep_from_ms);
    segments_deleted_ += journal_->writer()->DeleteSealedSegments(
        cutoff_ms, checkpoint_lsns_.front(), env_);
    last_checkpoint_sec_ = *mark;
    cadence_anchored_ = true;
  }
  return Status::OK();
}

Status DurableOnlineService::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) {
    return Status::FailedPrecondition("service is stopped");
  }
  return CheckpointLocked();
}

Status DurableOnlineService::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return Status::OK();
  service_->Stop();
  JournalNewRepairEventsLocked();
  Status checkpoint_status = CheckpointLocked();
  Status close_status = journal_->Close();
  stopped_ = true;
  if (!checkpoint_status.ok()) return checkpoint_status;
  return close_status;
}

DurableStats DurableOnlineService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DurableStats stats;
  stats.service = service_->stats();
  stats.wal = journal_->writer()->stats();
  stats.checkpoints_written = checkpoints_written_;
  stats.segments_deleted = segments_deleted_;
  stats.pending_journal_records = journal_->pending_records();
  return stats;
}

std::string DurableOnlineService::Fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return online::InstanceFingerprint(service_->detector().latencies_sec(),
                                     service_->outcomes());
}

}  // namespace pinsql::store
