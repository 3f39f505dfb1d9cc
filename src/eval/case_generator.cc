#include "eval/case_generator.h"

#include <algorithm>
#include <limits>
#include <map>

#include "dbsim/engine.h"
#include "workload/arrivals.h"

namespace pinsql::eval {

AnomalyCaseData GenerateCase(const CaseGenOptions& options) {
  AnomalyCaseData data;
  data.type = options.type;
  Rng rng(options.seed);

  // Workload + injected anomaly.
  data.workload = workload::MakeStandardWorkload(options.scenario, &rng);
  data.window_start_sec = options.window_start_sec;
  data.injected_as = options.window_start_sec + options.pre_anomaly_sec;
  data.injected_ae = data.injected_as + options.anomaly_duration_sec;
  data.window_end_sec = data.injected_ae + options.post_anomaly_sec;
  workload::Injection injection = workload::MakeInjection(
      options.type, &data.workload, data.injected_as, data.injected_ae, &rng);
  if (options.shape_injection) {
    options.shape_injection(&data.workload, &injection);
  }
  data.rsql_truth = injection.root_cause_ids;
  data.workload.RegisterTemplates(&data.logs);
  data.overrides = injection.overrides;
  data.arrival_seed = options.seed * 2654435761ULL + 13;

  // Simulate the anomaly window.
  const std::vector<dbsim::QueryArrival> arrivals =
      workload::GenerateArrivals(data.workload, data.overrides,
                                 data.window_start_sec, data.window_end_sec,
                                 data.arrival_seed);
  dbsim::Engine engine(options.sim);
  engine.AttachLogStore(&data.logs);
  engine.AddArrivals(arrivals);
  engine.RunToCompletion();
  const std::vector<dbsim::CompletedQuery> completed = engine.TakeCompleted();

  // Monitor view.
  Rng monitor_rng = rng.Fork(0xB0B);
  data.metrics = dbsim::ComputeInstanceMetrics(
      completed, data.window_start_sec, data.window_end_sec,
      engine.EffectiveCores(), options.sim.io_capacity_ms_per_sec,
      &monitor_rng);

  // Ground-truth H-SQLs: templates whose true individual session inflates
  // the most during the injected anomaly vs the clean baseline.
  const auto true_sessions = dbsim::ComputeTrueTemplateSessions(
      completed, data.window_start_sec, data.window_end_sec);
  double max_inflation = 0.0;
  std::map<uint64_t, double> inflation;
  for (const auto& [sql_id, series] : true_sessions) {
    const TimeSeries base =
        series.Slice(data.window_start_sec, data.injected_as);
    const TimeSeries anom = series.Slice(data.injected_as, data.injected_ae);
    // An H-SQL must be *affected*: materially above its own baseline, not
    // merely large. A big stable template that drifts up a little is load,
    // not a direct cause.
    const bool relatively_affected =
        anom.Mean() >= 2.0 * base.Mean() || base.Mean() < 0.05;
    const double delta =
        relatively_affected ? anom.Mean() - base.Mean() : 0.0;
    inflation[sql_id] = delta;
    max_inflation = std::max(max_inflation, delta);
  }
  for (const auto& [sql_id, delta] : inflation) {
    if (delta >= options.hsql_truth_min_abs &&
        delta >= options.hsql_truth_fraction * max_inflation) {
      data.hsql_truth.push_back(sql_id);
    }
  }
  if (data.hsql_truth.empty() && max_inflation > 0.0) {
    // Weak anomaly: no template cleared the absolute bar. The strongest
    // inflator is still the direct cause by definition.
    for (const auto& [sql_id, delta] : inflation) {
      if (delta == max_inflation) {
        data.hsql_truth.push_back(sql_id);
        break;
      }
    }
  }

  // Anomaly detection over the monitor metrics.
  const std::map<std::string, const TimeSeries*> monitored = {
      {"active_session", &data.metrics.active_session},
      {"cpu_usage", &data.metrics.cpu_usage},
      {"iops_usage", &data.metrics.iops_usage},
  };
  anomaly::PhenomenonConfig det_config = anomaly::PhenomenonConfig::Default();
  data.phenomena = anomaly::DetectPhenomena(monitored, det_config);
  int64_t as = 0;
  int64_t ae = 0;
  if (anomaly::ExtractAnomalyPeriod(data.phenomena, &as, &ae)) {
    data.detected = true;
    data.detected_as = std::max(as, data.window_start_sec + 1);
    data.detected_ae = std::min(ae, data.window_end_sec);
    if (data.detected_ae - data.detected_as < 10) data.detected = false;
  }

  // History windows: the same window length 1/3/7 days earlier, baseline
  // traffic only (the anomaly is new). Templates injected by the anomaly
  // (weight 0) have no history, which the verifier treats as "new".
  workload::Workload history_workload = data.workload;
  history_workload.templates.erase(
      std::remove_if(history_workload.templates.begin(),
                     history_workload.templates.end(),
                     [](const workload::TemplateDef& tpl) {
                       return tpl.weight <= 0.0;
                     }),
      history_workload.templates.end());
  for (int days : {1, 3, 7}) {
    const auto counts = workload::GenerateExecutionCounts(
        history_workload, {}, data.window_start_sec, data.window_end_sec,
        options.seed * 97 + static_cast<uint64_t>(days) * 131071);
    for (const auto& [sql_id, series] : counts) {
      data.history.Put(sql_id, days, series);
    }
  }
  return data;
}

void PinInjectionSeverity(workload::AnomalyType type,
                          workload::Workload* workload,
                          workload::Injection* injection) {
  auto& injected = workload->templates.back();
  if (type == workload::AnomalyType::kPoorSql) {
    injected.cpu_ms_mean = 320.0;
    injection->overrides[0].add_qps = 15.0;
  } else if (type == workload::AnomalyType::kRowLock) {
    injected.cpu_ms_mean = 400.0;
    injected.row_groups_touched = 3;
    injected.hot_group_limit = 4;
    injection->overrides[0].add_qps = 2.5;
    for (auto& table : workload->tables) {
      if (table.id == injected.table_id) table.hot_row_groups = 4;
    }
  }
}

double SeriesValue(const TimeSeries& series, int64_t sec) {
  if (!series.Covers(sec)) return std::numeric_limits<double>::quiet_NaN();
  return series.AtTime(sec);
}

}  // namespace pinsql::eval
