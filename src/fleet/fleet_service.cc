#include "fleet/fleet_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "obs/metrics.h"

namespace pinsql::fleet {

FleetService::FleetService(const std::vector<FleetInstanceSpec>& specs,
                           const FleetOptions& options)
    : options_(options),
      deduper_(options.scheduler.cooldown_sec),
      correlator_(
          [&options]() {
            // Storm membership must be decided by trigger times alone: a
            // lookback trigger is guaranteed still pending only while its
            // diagnosis is not yet due, so the storm window may not exceed
            // the diagnose delay (see CorrelatorOptions).
            CorrelatorOptions clamped = options.correlator;
            clamped.storm_window_sec = std::min(
                clamped.storm_window_sec, options.scheduler.diagnose_delay_sec);
            return clamped;
          }(),
          specs) {
  chunk_pool_ = std::make_shared<online::IngestChunkPool>();
  cores_.reserve(specs.size());
  for (const FleetInstanceSpec& spec : specs) {
    if (index_by_id_.count(spec.instance_id) != 0) continue;  // first wins
    index_by_id_[spec.instance_id] = cores_.size();
    cores_.push_back(std::make_unique<online::InstanceCore>(
        spec.instance_id, options_.ingestor, options_.detector, chunk_pool_));
  }
  scheduler_ = std::make_unique<FleetScheduler>(
      options_.pool, [this](const QueuedTrigger& entry) {
        return RunOne(entry);
      });
  if (options_.advance_workers > 1) {
    advance_pool_ =
        std::make_unique<util::ThreadPool>(options_.advance_workers);
  }
  if (!options_.data_dir.empty()) {
    store::Env* env =
        options_.env != nullptr ? options_.env : store::PosixEnv();
    for (const auto& core : cores_) {
      journals_.push_back(std::make_unique<store::InstanceJournal>(
          env,
          options_.data_dir + "/inst-" + std::to_string(core->instance_id()),
          options_.wal, core.get()));
    }
  }
}

FleetService::~FleetService() { Stop(); }

LogStore* FleetService::archive(uint32_t instance_id) {
  auto it = index_by_id_.find(instance_id);
  if (it == index_by_id_.end()) return nullptr;
  return cores_[it->second]->archive();
}

void FleetService::RegisterTemplateFleetWide(uint64_t sql_id,
                                             const TemplateCatalogEntry& entry) {
  for (size_t i = 0; i < cores_.size(); ++i) {
    if (durable()) {
      journals_[i]->RegisterTemplate(sql_id, entry);
    } else {
      cores_[i]->archive()->RegisterTemplate(sql_id, entry);
    }
  }
}

void FleetService::Start() {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (running_) return;
  if (durable() && !journals_recovered_) RecoverJournalsLocked();
  for (const auto& journal : journals_) {
    // A journal whose writer cannot open leaves its instance in-memory.
    // Re-journaling the catalog puts registrations made before Start() (or
    // recovered from a prior incarnation) in a segment this writer owns.
    if (journal->Open().ok()) journal->JournalCatalog();
  }
  running_ = true;
}

void FleetService::Stop() {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (!running_) return;
  // Drain: process every instance up to its own watermark, then close the
  // open storm (if any) and run every queued diagnosis.
  int64_t drain_to = last_fleet_sec_;
  for (const auto& core : cores_) {
    if (auto mark = core->ingestor().watermark_sec(); mark.has_value()) {
      drain_to = std::max(drain_to, *mark);
    }
  }
  AdvanceToLocked(drain_to);
  if (auto batch = correlator_.CloseOpenStorm(last_fleet_sec_);
      batch.has_value()) {
    TriageClosedStorm(std::move(*batch), last_fleet_sec_);
  }
  std::vector<FleetOutcome> completed;
  AppendCompletions(scheduler_->Drain(last_fleet_sec_), &completed);
  for (const auto& journal : journals_) journal->Close();
  running_ = false;
}

bool FleetService::IngestRecord(uint32_t instance_id,
                                const QueryLogRecord& record) {
  return IngestRecords(instance_id, {&record, 1}) == 1;
}

size_t FleetService::IngestRecords(uint32_t instance_id,
                                   std::span<const QueryLogRecord> records,
                                   std::vector<QueryLogRecord>* accepted) {
  auto it = index_by_id_.find(instance_id);
  if (it == index_by_id_.end()) return 0;
  if (!durable()) {
    return cores_[it->second]->ingestor().IngestRecords(records, accepted);
  }
  return journals_[it->second]->IngestRecords(records, accepted);
}

bool FleetService::IngestMetrics(uint32_t instance_id,
                                 const online::PerfSample& sample) {
  auto it = index_by_id_.find(instance_id);
  if (it == index_by_id_.end()) return false;
  if (!durable()) return cores_[it->second]->ingestor().IngestMetrics(sample);
  return journals_[it->second]->IngestMetrics(sample);
}

void FleetService::RecoverJournalsLocked() {
  journals_recovered_ = true;
  recovery_.attempted = true;
  const auto started = std::chrono::steady_clock::now();

  // Every instance's frames in journal order; a record-batch frame belongs
  // to the next sample frame after it.
  std::vector<std::deque<store::WalFrame>> frames(journals_.size());
  std::set<int64_t> sample_secs;
  for (size_t i = 0; i < journals_.size(); ++i) {
    store::WalScanStats scan;
    journals_[i]->Scan(
        store::WalPosition{0, 0},
        [&](const store::WalFrame& frame) {
          if (frame.kind == store::FrameKind::kSample) {
            sample_secs.insert(frame.sample.sec);
          }
          frames[i].push_back(frame);
        },
        &scan);
    if (scan.last_seq > 0) ++recovery_.instances_with_wal;
    recovery_.frames_valid += scan.frames_valid;
    recovery_.frames_corrupt += scan.frames_corrupt;
    recovery_.frames_malformed += scan.frames_malformed;
    recovery_.frames_time_rejected += scan.frames_time_rejected;
    recovery_.records += scan.records;
    recovery_.samples += scan.samples;
    recovery_.templates += scan.templates;
    recovery_.torn_tail_bytes_truncated += scan.torn_tail_bytes_truncated;
  }

  // Replay with the canonical per-second discipline: for every second that
  // closed a sample anywhere in the fleet, apply each instance's frames
  // through its samples due by then, then advance the fleet clock — the
  // same total order a live producers-then-AdvanceTo loop establishes, so
  // the recovered outcomes fingerprint byte-identically.
  const auto is_sample = [](const store::WalFrame& frame) {
    return frame.kind == store::FrameKind::kSample;
  };
  for (int64_t sec : sample_secs) {
    for (size_t i = 0; i < journals_.size(); ++i) {
      std::deque<store::WalFrame>& queue = frames[i];
      for (auto sample = std::find_if(queue.begin(), queue.end(), is_sample);
           sample != queue.end() && sample->sample.sec <= sec;
           sample = std::find_if(queue.begin(), queue.end(), is_sample)) {
        for (auto it = queue.begin(); it != sample + 1; ++it) {
          journals_[i]->Apply(*it);
        }
        queue.erase(queue.begin(), sample + 1);
      }
    }
    AdvanceToLocked(sec);
  }
  // Tail frames (records journaled after the last sample) stay staged,
  // exactly as they were before the crash.
  for (size_t i = 0; i < journals_.size(); ++i) {
    for (const store::WalFrame& frame : frames[i]) journals_[i]->Apply(frame);
  }

  recovery_.recovery_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - started)
                              .count();
  PINSQL_OBS_GAUGE_SET("store.recovery_ms",
                       static_cast<int64_t>(recovery_.recovery_ms));
}

std::vector<FleetOutcome> FleetService::AdvanceTo(int64_t fleet_sec) {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (!running_) return {};
  return AdvanceToLocked(fleet_sec);
}

void FleetService::Fold() {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (running_) FoldLocked();
}

void FleetService::FoldLocked() {
  std::vector<online::InstanceCore*> dirty;
  for (const auto& core : cores_) {
    if (core->ingestor().has_staged()) dirty.push_back(core.get());
  }
  util::ParallelFor(FanOutPool(dirty.size()), dirty.size(),
                    [&](size_t d) { dirty[d]->ingestor().Pump(); });
}

util::ThreadPool* FleetService::FanOutPool(size_t staged) const {
  // Folding is the bulk of an instance's step; a detector step alone takes
  // microseconds. With no more instances to fold than workers, waking the
  // helpers costs more CPU than it saves.
  return staged > static_cast<size_t>(options_.advance_workers)
             ? advance_pool_.get()
             : nullptr;
}

std::vector<std::optional<int64_t>> FleetService::OpenWindowFloorsLocked()
    const {
  std::vector<std::optional<int64_t>> floors(cores_.size());
  const auto cover = [&](const online::AnomalyTrigger& trigger) {
    const auto it = index_by_id_.find(trigger.instance_id);
    if (it == index_by_id_.end()) return;
    // The start of the window RunWindowedDiagnosis will snapshot.
    const int64_t t0_ms =
        (trigger.onset_sec - options_.scheduler.diagnoser.delta_s_sec) * 1000;
    std::optional<int64_t>& floor = floors[it->second];
    if (!floor.has_value() || t0_ms < *floor) floor = t0_ms;
  };
  for (const QueuedTrigger& entry : scheduler_->queue()) cover(entry.trigger);
  if (const auto& storm = correlator_.open_storm(); storm.has_value()) {
    for (const StormMember& member : storm->members) cover(member.trigger);
  }
  return floors;
}

void FleetService::RouteAcceptedTrigger(const online::AnomalyTrigger& trigger) {
  const int64_t due_sec =
      trigger.trigger_sec + options_.scheduler.diagnose_delay_sec;
  const double base_priority = trigger.severity;
  PINSQL_OBS_COUNT("fleet.triggers_accepted", 1);
  PINSQL_OBS_OBSERVE(
      "fleet.detection_latency_sec",
      static_cast<uint64_t>(
          std::max<int64_t>(trigger.trigger_sec - trigger.onset_sec, 0)));
  if (correlator_.OnAcceptedTrigger(trigger, due_sec, base_priority)) {
    return;  // captured by the open storm batch
  }
  scheduler_->Enqueue(trigger, trigger.trigger_sec, due_sec, base_priority);
}

void FleetService::TriageClosedStorm(StormBatch batch, int64_t now_sec) {
  // Triage rank: highest severity first, ties broken by earlier onset,
  // then lower instance id — fully deterministic.
  std::vector<size_t> order(batch.members.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const StormMember& ma = batch.members[a];
    const StormMember& mb = batch.members[b];
    if (ma.trigger.severity != mb.trigger.severity) {
      return ma.trigger.severity > mb.trigger.severity;
    }
    if (ma.trigger.onset_sec != mb.trigger.onset_sec) {
      return ma.trigger.onset_sec < mb.trigger.onset_sec;
    }
    return ma.trigger.instance_id < mb.trigger.instance_id;
  });

  for (size_t rank = 0; rank < order.size(); ++rank) {
    const StormMember& member = batch.members[order[rank]];
    if (rank < options_.correlator.storm_triage_k) {
      batch.triaged.push_back(member.trigger.instance_id);
      scheduler_->Enqueue(member.trigger, now_sec,
                          std::max(member.due_sec, now_sec),
                          member.base_priority, batch.id);
    } else {
      FleetOutcome deferred;
      deferred.disposition = FleetOutcome::Disposition::kStormDeferred;
      deferred.storm_batch = batch.id;
      deferred.outcome.trigger = member.trigger;
      deferred.outcome.ok = false;
      deferred.outcome.error =
          "storm_deferred:batch=" + std::to_string(batch.id);
      outcomes_.push_back(std::move(deferred));
      ++storm_deferred_;
      PINSQL_OBS_COUNT("fleet.storm_deferred", 1);
    }
  }
  storms_.push_back(std::move(batch));
}

void FleetService::AppendCompletions(
    std::vector<FleetScheduler::Completion> completions,
    std::vector<FleetOutcome>* out) {
  for (auto& [entry, outcome] : completions) {
    FleetOutcome fleet_outcome;
    fleet_outcome.disposition = FleetOutcome::Disposition::kDiagnosed;
    fleet_outcome.storm_batch = entry.storm_batch;
    fleet_outcome.outcome = std::move(outcome);
    if (fleet_outcome.outcome.ok) {
      ++diagnoses_ok_;
    } else {
      ++diagnoses_failed_;
    }
    outcomes_.push_back(fleet_outcome);
    if (out != nullptr) out->push_back(std::move(fleet_outcome));
    PINSQL_OBS_COUNT("fleet.diagnoses", 1);
  }
}

online::DiagnosisOutcome FleetService::RunOne(const QueuedTrigger& entry) {
  online::InstanceCore& core =
      *cores_[index_by_id_.at(entry.trigger.instance_id)];
  online::WindowedDiagnosisContext ctx;
  ctx.ingestor = &core.ingestor();
  ctx.archive = core.archive();
  ctx.options = &options_.scheduler;
  ctx.supervisor = nullptr;  // fleet service is diagnose-only
  ctx.history = &empty_history_;
  ctx.rules = &rules_;
  // The window end is the trigger's planned end — fixed at trigger time,
  // independent of when the pool actually ran this entry (storm triage may
  // delay its due second past it).
  const int64_t window_end_sec =
      entry.trigger.trigger_sec + options_.scheduler.diagnose_delay_sec;
  return online::RunWindowedDiagnosis(ctx, entry.trigger, window_end_sec,
                                      nullptr);
}

std::vector<FleetOutcome> FleetService::AdvanceToLocked(int64_t fleet_sec) {
  std::vector<FleetOutcome> completed;

  if (processed_fleet_any_ && fleet_sec <= last_fleet_sec_) {
    // Not an advance: fold what producers staged so it is not judged late
    // against a watermark that keeps moving, but step no detector — a
    // lagging instance's seconds wait for the next advancing call, whose
    // merge routes their triggers.
    FoldLocked();
    return completed;
  }

  // Parallel per-instance step over the dirty instances: pump, then step
  // the core through its unprocessed seconds up to fleet_sec — into
  // disjoint per-instance slots, so the merge below sees identical steps
  // at any advance_workers. A clean instance would pump nothing and step
  // no second, so skipping it changes no step. The retention floors are
  // read before the fan-out: the pool and the correlator stay untouched
  // until the merge.
  std::vector<std::vector<online::SecondStep>> steps(cores_.size());
  std::vector<size_t> dirty;
  size_t staged = 0;
  for (size_t i = 0; i < cores_.size(); ++i) {
    const bool has_staged = cores_[i]->ingestor().has_staged();
    if (has_staged) ++staged;
    if (has_staged || !cores_[i]->Unprocessed(fleet_sec).empty()) {
      dirty.push_back(i);
    }
  }
  const std::vector<std::optional<int64_t>> floors = OpenWindowFloorsLocked();
  util::ParallelFor(FanOutPool(staged), dirty.size(), [&](size_t d) {
    const size_t i = dirty[d];
    online::InstanceCore& core = *cores_[i];
    core.ingestor().Pump();
    const online::SecondRange range = core.Unprocessed(fleet_sec);
    for (int64_t sec = range.first; sec <= range.last; ++sec) {
      steps[i].push_back(core.Step(sec, floors[i]));
    }
  });

  int64_t tick_from =
      processed_fleet_any_ ? last_fleet_sec_ + 1 : fleet_sec;
  if (!processed_fleet_any_) {
    // First advance: start the fleet clock at the earliest instance event
    // so a lagging instance's seconds are not skipped.
    for (const auto& instance_steps : steps) {
      if (!instance_steps.empty()) {
        tick_from = std::min(tick_from, instance_steps.front().sec);
      }
    }
  }
  if (tick_from > fleet_sec) return completed;

  // Sequential merge in (second, instance) order: dedup, correlate, route,
  // then the fleet-level ticks.
  std::vector<size_t> cursors(cores_.size(), 0);
  for (int64_t sec = tick_from; sec <= fleet_sec; ++sec) {
    for (const size_t i : dirty) {
      const auto& instance_steps = steps[i];
      auto& cursor = cursors[i];
      // `<=`: an instance second that predates the fleet clock (a late
      // joiner) is merged at the first tick that sees it.
      while (cursor < instance_steps.size() &&
             instance_steps[cursor].sec <= sec) {
        const online::SecondStep& step = instance_steps[cursor];
        if (step.trigger.has_value()) {
          ++triggers_confirmed_;
          if (deduper_.Accept(*step.trigger)) {
            ++triggers_accepted_;
            RouteAcceptedTrigger(*step.trigger);
          } else {
            ++triggers_suppressed_;
            PINSQL_OBS_COUNT("fleet.triggers_suppressed", 1);
          }
        }
        if (step.in_run) {
          deduper_.NoteActivity(cores_[i]->instance_id(), step.sec);
        }
        ++cursor;
      }
    }

    auto tick_events = correlator_.Tick(sec);
    if (tick_events.storm_opened) {
      // Pull the lookback window's pending triggers into the batch. They
      // are all still queued at any pool size: their due seconds lie
      // beyond `sec` because storm_window_sec <= diagnose_delay_sec.
      auto pulled = scheduler_->Extract([&](const QueuedTrigger& entry) {
        return entry.storm_batch == 0 &&
               entry.trigger.trigger_sec >= tick_events.lookback_from_sec;
      });
      std::vector<StormMember> members;
      members.reserve(pulled.size());
      for (const QueuedTrigger& entry : pulled) {
        members.push_back(
            {entry.trigger, entry.due_sec, entry.base_priority});
      }
      correlator_.AdoptIntoOpenStorm(members);
    }
    for (StormBatch& batch : tick_events.closed) {
      TriageClosedStorm(std::move(batch), sec);
    }
    for (NoisyNeighborVerdict& verdict : tick_events.verdicts) {
      verdicts_.push_back(std::move(verdict));
    }

    AppendCompletions(scheduler_->Tick(sec), &completed);
    PINSQL_OBS_GAUGE_SET("fleet.pool_queue_depth",
                         static_cast<int64_t>(scheduler_->pending()));

    last_fleet_sec_ = sec;
    processed_fleet_any_ = true;
    ++seconds_processed_;
  }
  PINSQL_OBS_COUNT("fleet.seconds_processed",
                   static_cast<uint64_t>(fleet_sec - tick_from + 1));
  return completed;
}

std::vector<int64_t> FleetService::detection_latencies(
    uint32_t instance_id) const {
  std::lock_guard<std::mutex> lock(advance_mu_);
  auto it = index_by_id_.find(instance_id);
  if (it == index_by_id_.end()) return {};
  return cores_[it->second]->detector().latencies_sec();
}

FleetStats FleetService::stats() const {
  std::lock_guard<std::mutex> lock(advance_mu_);
  FleetStats stats;
  stats.instances = cores_.size();
  for (const auto& core : cores_) {
    const online::IngestStats cut = core->ingestor().stats();
    stats.ingest.records_enqueued += cut.records_enqueued;
    stats.ingest.records_folded += cut.records_folded;
    stats.ingest.records_dropped_backpressure +=
        cut.records_dropped_backpressure;
    stats.ingest.records_dropped_late += cut.records_dropped_late;
    stats.ingest.records_staged += cut.records_staged;
    stats.ingest.metric_samples += cut.metric_samples;
    stats.ingest.metric_samples_dropped += cut.metric_samples_dropped;
    stats.samples_observed += core->detector().stats().samples;
  }
  for (const auto& journal : journals_) {
    stats.pending_journal_records += journal->pending_records();
  }
  stats.triggers_confirmed = triggers_confirmed_;
  stats.triggers_accepted = triggers_accepted_;
  stats.triggers_suppressed = triggers_suppressed_;
  stats.diagnoses_ok = diagnoses_ok_;
  stats.diagnoses_failed = diagnoses_failed_;
  stats.storms_detected = correlator_.storms_detected();
  stats.storm_deferred = storm_deferred_;
  stats.neighbor_verdicts = verdicts_.size();
  stats.seconds_processed = seconds_processed_;
  stats.pool = scheduler_->stats();
  return stats;
}

}  // namespace pinsql::fleet
