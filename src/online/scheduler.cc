#include "online/scheduler.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pinsql::online {

bool TriggerDeduper::Accept(const AnomalyTrigger& trigger) {
  auto it = last_activity_.find(trigger.instance_id);
  if (it != last_activity_.end() &&
      trigger.onset_sec <= it->second + cooldown_sec_) {
    if (trigger.trigger_sec > it->second) it->second = trigger.trigger_sec;
    return false;
  }
  if (it == last_activity_.end()) {
    last_activity_.emplace(trigger.instance_id, trigger.trigger_sec);
  } else if (trigger.trigger_sec > it->second) {
    it->second = trigger.trigger_sec;
  }
  return true;
}

std::vector<std::pair<uint32_t, int64_t>> TriggerDeduper::ExportActivity()
    const {
  return {last_activity_.begin(), last_activity_.end()};
}

void TriggerDeduper::ImportActivity(
    const std::vector<std::pair<uint32_t, int64_t>>& pairs) {
  last_activity_.clear();
  for (const auto& [instance_id, sec] : pairs) {
    last_activity_[instance_id] = sec;
  }
}

void TriggerDeduper::NoteActivity(uint32_t instance_id, int64_t sec) {
  // Extends an existing incident's horizon only. Screen activity before
  // any trigger fired must not anchor the cooldown — it would suppress the
  // very trigger that confirms the incident (the screen flags a few
  // seconds before Pettitt can confirm).
  auto it = last_activity_.find(instance_id);
  if (it != last_activity_.end() && sec > it->second) it->second = sec;
}

DiagnosisScheduler::DiagnosisScheduler(StreamIngestor* ingestor,
                                       const LogStore* archive,
                                       const SchedulerOptions& options,
                                       repair::RepairSupervisor* supervisor,
                                       const core::HistoryProvider* history)
    : ingestor_(ingestor),
      archive_(archive),
      options_(options),
      supervisor_(supervisor),
      history_(history != nullptr ? history : &empty_history_),
      deduper_(options.cooldown_sec) {}

bool DiagnosisScheduler::OnTrigger(const AnomalyTrigger& trigger) {
  if (!deduper_.Accept(trigger)) {
    ++stats_.triggers_suppressed;
    PINSQL_OBS_COUNT("online.triggers_suppressed", 1);
    return false;
  }
  pending_.push_back(
      {trigger, trigger.trigger_sec + options_.diagnose_delay_sec});
  ++stats_.triggers_accepted;
  PINSQL_OBS_COUNT("online.triggers_accepted", 1);
  return true;
}

void DiagnosisScheduler::NoteAnomalousActivity(int64_t sec,
                                               uint32_t instance_id) {
  deduper_.NoteActivity(instance_id, sec);
}

std::vector<DiagnosisOutcome> DiagnosisScheduler::Poll(int64_t now_sec) {
  std::vector<DiagnosisOutcome> completed;
  while (!pending_.empty() && pending_.front().due_sec <= now_sec) {
    SchedulerPendingState pending = pending_.front();
    pending_.pop_front();
    completed.push_back(RunDiagnosis(pending));
  }
  return completed;
}

std::vector<DiagnosisOutcome> DiagnosisScheduler::Drain() {
  std::vector<DiagnosisOutcome> completed;
  while (!pending_.empty()) {
    SchedulerPendingState pending = pending_.front();
    pending_.pop_front();
    completed.push_back(RunDiagnosis(pending));
  }
  return completed;
}

std::optional<int64_t> DiagnosisScheduler::open_window_floor_ms() const {
  std::optional<int64_t> floor;
  for (const SchedulerPendingState& pending : pending_) {
    const int64_t t0_ms =
        (pending.trigger.onset_sec - options_.diagnoser.delta_s_sec) * 1000;
    if (!floor.has_value() || t0_ms < *floor) floor = t0_ms;
  }
  return floor;
}

namespace {

void ZeroTimings(core::DiagnosisResult* result) {
  result->estimate_seconds = 0.0;
  result->hsql_seconds = 0.0;
  result->cluster_seconds = 0.0;
  result->verify_seconds = 0.0;
  result->total_seconds = 0.0;
  result->trace.total_seconds = 0.0;
  for (obs::StageTrace& stage : result->trace.stages) stage.seconds = 0.0;
}

}  // namespace

DiagnosisOutcome RunWindowedDiagnosis(const WindowedDiagnosisContext& ctx,
                                      const AnomalyTrigger& trigger,
                                      int64_t window_end_sec,
                                      DiagnosisSideStats* side) {
  const SchedulerOptions& options = *ctx.options;
  DiagnosisOutcome outcome;
  outcome.trigger = trigger;

  const int64_t a_s = trigger.onset_sec;
  const int64_t a_e = window_end_sec;
  const int64_t t0 = a_s - options.diagnoser.delta_s_sec;

  // A consistent point-in-time copy of the window's archive records, taken
  // while ingest threads keep appending; arrival-ordered, so Diagnose reads
  // it in place. BuildReport resolves template texts from the archive.
  const std::vector<QueryLogRecord> window_logs =
      ctx.archive->SnapshotRange(t0 * 1000, a_e * 1000);

  WindowMetrics metrics = ctx.ingestor->SnapshotMetrics(t0, a_e);

  core::DiagnosisInput input;
  input.logs = window_logs;
  input.active_session = std::move(metrics.active_session);
  input.helper_metrics = std::move(metrics.helpers);
  input.anomaly_start_sec = a_s;
  input.anomaly_end_sec = a_e;
  input.history = ctx.history;

  auto result = core::Diagnose(input, options.diagnoser);
  if (!result.ok()) {
    outcome.ok = false;
    outcome.error = result.status().ToString();
    PINSQL_OBS_COUNT("online.diagnoses_failed", 1);
    return outcome;
  }
  if (options.zero_timings) ZeroTimings(&result.value());

  std::vector<anomaly::Phenomenon> phenomena;
  anomaly::Phenomenon phenomenon;
  phenomenon.rule = "active_session.spike";
  phenomenon.start_sec = a_s;
  phenomenon.end_sec = a_e;
  phenomenon.severity = trigger.severity;
  phenomena.push_back(phenomenon);

  outcome.confirmed_rsqls = result->TopRsql(options.top_k);
  std::vector<repair::Suggestion> suggestions = ctx.rules->Suggest(
      phenomena, outcome.confirmed_rsqls, result->metrics, a_s, a_e,
      kMaxRepairsPerDiagnosis);

  size_t events_before = 0;
  if (ctx.supervisor != nullptr) {
    events_before = ctx.supervisor->events().size();
    const double now_ms = static_cast<double>(a_e) * 1000.0;
    // Baseline for post-action verification: the latest observed
    // active-session sample (negative skips verification when telemetry is
    // out).
    double observed = -1.0;
    if (auto sample = ctx.ingestor->SampleAt(a_e - 1);
        sample.has_value() && std::isfinite(sample->active_session)) {
      observed = sample->active_session;
    }
    size_t applied = 0;
    for (const repair::Suggestion& suggestion : suggestions) {
      if (applied >= kMaxRepairsPerDiagnosis) break;
      auto apply = ctx.supervisor->Apply(suggestion.action, now_ms, observed);
      if (apply.ok() &&
          apply->code == repair::ApplyOutcome::Code::kApplied) {
        ++applied;
        if (side != nullptr) ++side->repairs_applied;
        PINSQL_OBS_COUNT("online.repairs_applied", 1);
        if (outcome.ttr_sec < 0.0) {
          outcome.ttr_sec =
              apply->applied_ms / 1000.0 - static_cast<double>(a_s);
        }
      } else {
        if (side != nullptr) ++side->repairs_rejected;
        PINSQL_OBS_COUNT("online.repairs_rejected", 1);
      }
    }
    outcome.repairs_applied = applied;
  }

  outcome.report =
      core::BuildReport(result.value(), *ctx.archive, phenomena, a_s, a_e,
                        suggestions, options.top_k);
  if (ctx.supervisor != nullptr) {
    const auto& events = ctx.supervisor->events();
    outcome.report.repair_events.assign(events.begin() + events_before,
                                        events.end());
  }

  outcome.ok = true;
  PINSQL_OBS_COUNT("online.diagnoses", 1);
  return outcome;
}

SchedulerState DiagnosisScheduler::ExportState() const {
  SchedulerState state;
  state.pending.assign(pending_.begin(), pending_.end());
  state.dedup_activity = deduper_.ExportActivity();
  state.stats = stats_;
  state.outcomes = outcomes_;
  return state;
}

void DiagnosisScheduler::ImportState(const SchedulerState& state) {
  pending_.assign(state.pending.begin(), state.pending.end());
  deduper_.ImportActivity(state.dedup_activity);
  stats_ = state.stats;
  outcomes_ = state.outcomes;
}

DiagnosisOutcome DiagnosisScheduler::RunDiagnosis(
    const SchedulerPendingState& pending) {
  WindowedDiagnosisContext ctx;
  ctx.ingestor = ingestor_;
  ctx.archive = archive_;
  ctx.options = &options_;
  ctx.supervisor = supervisor_;
  ctx.history = history_;
  ctx.rules = &rules_;
  DiagnosisSideStats side;
  DiagnosisOutcome outcome =
      RunWindowedDiagnosis(ctx, pending.trigger, pending.due_sec, &side);
  stats_.repairs_applied += side.repairs_applied;
  stats_.repairs_rejected += side.repairs_rejected;
  if (outcome.ok) {
    ++stats_.diagnoses_ok;
  } else {
    ++stats_.diagnoses_failed;
  }
  outcomes_.push_back(outcome);
  return outcome;
}

}  // namespace pinsql::online
