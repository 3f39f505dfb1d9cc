#include "eval/closed_loop_chaos.h"

#include <algorithm>
#include <memory>

#include "anomaly/phenomenon.h"
#include "core/diagnoser.h"
#include "dbsim/engine.h"
#include "dbsim/monitor.h"
#include "eval/case_generator.h"
#include "util/thread_pool.h"
#include "workload/arrivals.h"
#include "workload/scenario.h"

namespace pinsql::eval {

namespace {

void MergeStats(repair::SupervisorStats* into,
                const repair::SupervisorStats& from) {
  into->applied += from.applied;
  into->partial_applications += from.partial_applications;
  into->duplicates_suppressed += from.duplicates_suppressed;
  into->rejected += from.rejected;
  into->breaker_rejected += from.breaker_rejected;
  into->failed += from.failed;
  into->attempts += from.attempts;
  into->retries += from.retries;
  into->rollbacks += from.rollbacks;
  into->verified += from.verified;
  into->breaker_opens += from.breaker_opens;
}

void MergeFaultStats(faults::ActionFaultStats* into,
                     const faults::ActionFaultStats& from) {
  into->attempts_seen += from.attempts_seen;
  into->attempts_failed += from.attempts_failed;
  into->applications_delayed += from.applications_delayed;
  into->applications_partial += from.applications_partial;
}

}  // namespace

ClosedLoopCaseOutcome RunClosedLoopCase(const ClosedLoopOptions& options,
                                        double severity, size_t index) {
  ClosedLoopCaseOutcome out;
  const uint64_t case_seed = options.seed + index * 1000003ULL;
  Rng rng(case_seed);

  // --- Scenario: an expensive root-cause SQL deploys and keeps running ----
  workload::ScenarioParams params;
  workload::Workload workload = workload::MakeStandardWorkload(params, &rng);
  const workload::AnomalyType type = (index % 2 == 0)
                                         ? workload::AnomalyType::kPoorSql
                                         : workload::AnomalyType::kRowLock;
  workload::Injection injection = workload::MakeInjection(
      type, &workload, options.anomaly_start_sec, options.day_end_sec, &rng);
  // Random draws can be too mild to need repair.
  PinInjectionSeverity(type, &workload, &injection);
  const uint64_t rsql_truth = injection.root_cause_ids[0];

  LogStore logs;
  workload.RegisterTemplates(&logs);
  dbsim::SimConfig sim;
  sim.cpu_cores = 8.0;
  dbsim::Engine engine(sim);
  engine.AttachLogStore(&logs);
  engine.AddArrivals(workload::GenerateArrivals(
      workload, injection.overrides, 0, options.day_end_sec,
      case_seed ^ 0x5DEECE66DULL));

  // --- Supervised repair under an injected-fault control plane -----------
  faults::ActionFaultPlan plan = options.plan.WithSeverity(severity);
  plan.seed = options.plan.seed + index * 7919ULL;
  faults::ActionFaultInjector hook(plan);
  repair::SupervisorOptions sup = options.supervisor;
  sup.seed = options.seed + index * 31ULL;
  repair::RepairSupervisor supervisor(&engine, sup, &hook);

  const auto metrics_until = [&](int64_t t_sec) {
    Rng monitor_rng(7);  // fixed: offsets identical at every recompute
    return dbsim::ComputeInstanceMetrics(
        engine.completed(), 0, t_sec, engine.EffectiveCores(),
        sim.io_capacity_ms_per_sec, &monitor_rng);
  };
  const auto session_mean = [&](const dbsim::InstanceMetrics& m, int64_t t0,
                                int64_t t1) {
    return m.active_session.Slice(t0, t1).Mean();
  };

  // --- Phase 1: anomaly runs untreated; diagnose at repair_at ------------
  engine.RunUntil(static_cast<double>(options.repair_at_sec) * 1000.0);
  const dbsim::InstanceMetrics so_far = metrics_until(options.repair_at_sec);
  out.baseline_session = session_mean(so_far, 60, options.anomaly_start_sec);
  out.anomaly_session = session_mean(so_far, options.anomaly_start_sec + 50,
                                     options.repair_at_sec);

  core::DiagnosisInput input;
  core::MapHistoryProvider empty_history;
  input.history = &empty_history;
  input.logs = logs.SortedRecords();
  input.active_session = so_far.active_session;
  input.helper_metrics["cpu_usage"] = so_far.cpu_usage;
  input.helper_metrics["iops_usage"] = so_far.iops_usage;
  input.helper_metrics["row_lock_waits"] = so_far.row_lock_waits;
  input.helper_metrics["mdl_waits"] = so_far.mdl_waits;
  const std::map<std::string, const TimeSeries*> monitored = {
      {"active_session", &so_far.active_session},
      {"cpu_usage", &so_far.cpu_usage},
      {"iops_usage", &so_far.iops_usage},
  };
  const auto phenomena = anomaly::DetectPhenomena(
      monitored, anomaly::PhenomenonConfig::Default());
  int64_t as = options.anomaly_start_sec;
  int64_t ae = options.repair_at_sec;
  anomaly::ExtractAnomalyPeriod(phenomena, &as, &ae);
  input.anomaly_start_sec = std::max<int64_t>(as, 60);
  input.anomaly_end_sec = std::min<int64_t>(ae, options.repair_at_sec);

  uint64_t target = 0;
  StatusOr<core::DiagnosisResult> diagnosis =
      core::Diagnose(input, core::DiagnoserOptions{});
  if (diagnosis.ok() && !diagnosis->rsql.ranking.empty()) {
    target = diagnosis->rsql.ranking[0];
  }
  out.diagnosed_correctly = target == rsql_truth;

  // --- Phase 2: closed loop — apply, watch, roll back, re-apply ----------
  repair::RepairAction optimize;
  optimize.type = repair::ActionType::kOptimize;
  optimize.sql_id = target;
  optimize.optimize_cpu_factor = 0.08;
  optimize.optimize_rows_factor = 0.08;

  const double recovery_threshold = 3.0 * out.baseline_session + 2.0;
  double last_metric = session_mean(
      so_far, options.repair_at_sec - options.tick_interval_sec,
      options.repair_at_sec);
  double first_applied_ms = -1.0;
  int rounds = 0;
  int64_t t = options.repair_at_sec;
  while (t < options.day_end_sec) {
    if (target != 0 && supervisor.active_actions() == 0 &&
        rounds < options.max_repair_rounds) {
      // Breaker-open rejections don't consume a round: the loop simply
      // waits for the cooldown like a real remediation daemon would.
      const size_t breaker_rejected_before =
          supervisor.stats().breaker_rejected;
      const StatusOr<repair::ApplyOutcome> applied = supervisor.Apply(
          optimize, static_cast<double>(t) * 1000.0, last_metric);
      if (supervisor.stats().breaker_rejected == breaker_rejected_before) {
        ++rounds;
      }
      if (applied.ok() && first_applied_ms < 0.0) {
        first_applied_ms = applied->applied_ms;
      }
    }
    t = std::min<int64_t>(t + options.tick_interval_sec,
                          options.day_end_sec);
    engine.RunUntil(static_cast<double>(t) * 1000.0);
    const dbsim::InstanceMetrics now_metrics = metrics_until(t);
    last_metric =
        session_mean(now_metrics, t - options.tick_interval_sec, t);
    supervisor.Tick(static_cast<double>(t) * 1000.0, last_metric);
    if (first_applied_ms >= 0.0 && out.time_to_recover_sec < 0.0 &&
        last_metric <= recovery_threshold) {
      out.time_to_recover_sec =
          static_cast<double>(t) - first_applied_ms / 1000.0;
    }
  }
  engine.RunToCompletion();

  // --- Recovery check ----------------------------------------------------
  const dbsim::InstanceMetrics day = metrics_until(options.day_end_sec);
  out.final_session =
      session_mean(day, options.day_end_sec - 150, options.day_end_sec);
  out.recovered = out.final_session < 0.25 * out.anomaly_session &&
                  out.final_session < recovery_threshold;
  out.any_rollback = supervisor.stats().rollbacks > 0;
  out.events_consistent = repair::EventAccountingConsistent(
      supervisor.events());
  out.stats = supervisor.stats();
  out.injected = hook.stats();
  return out;
}

std::vector<ClosedLoopPoint> RunClosedLoopChaos(
    const ClosedLoopOptions& options) {
  std::vector<ClosedLoopPoint> curve;
  const size_t num_cases = static_cast<size_t>(options.num_cases);
  std::unique_ptr<util::ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<util::ThreadPool>(options.num_threads);
  }

  for (double severity : options.severities) {
    std::vector<ClosedLoopCaseOutcome> outcomes(num_cases);
    util::ParallelFor(pool.get(), num_cases, [&](size_t index) {
      outcomes[index] = RunClosedLoopCase(options, severity, index);
    });

    ClosedLoopPoint point;
    point.severity = severity;
    point.cases = num_cases;
    double recover_time_sum = 0.0;
    size_t recover_time_count = 0;
    for (const ClosedLoopCaseOutcome& out : outcomes) {
      if (out.recovered) ++point.recovered;
      if (out.diagnosed_correctly) ++point.diagnosed_correctly;
      if (out.any_rollback) ++point.cases_with_rollback;
      if (out.events_consistent) ++point.events_consistent;
      if (out.recovered && out.time_to_recover_sec >= 0.0) {
        recover_time_sum += out.time_to_recover_sec;
        ++recover_time_count;
      }
      MergeStats(&point.stats, out.stats);
      MergeFaultStats(&point.injected, out.injected);
    }
    if (recover_time_count > 0) {
      point.mean_time_to_recover_sec =
          recover_time_sum / static_cast<double>(recover_time_count);
    }
    curve.push_back(point);
  }
  return curve;
}

}  // namespace pinsql::eval
