#ifndef PINSQL_EVAL_CASE_GENERATOR_H_
#define PINSQL_EVAL_CASE_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "anomaly/phenomenon.h"
#include "core/rsql.h"
#include "dbsim/monitor.h"
#include "dbsim/types.h"
#include "logstore/log_store.h"
#include "workload/scenario.h"

namespace pinsql::eval {

/// Parameters of one synthetic ADAC-style anomaly case. The paper's cases
/// span ~10 min anomalies inside ~40 min windows; these defaults compress
/// that to keep a full evaluation tractable on one machine while keeping
/// the causal structure identical.
struct CaseGenOptions {
  uint64_t seed = 1;
  workload::AnomalyType type = workload::AnomalyType::kBusinessSpike;
  workload::ScenarioParams scenario;

  int64_t window_start_sec = 100000;  // arbitrary epoch-like origin
  int64_t pre_anomaly_sec = 600;      // clean baseline before a_s (delta_s)
  int64_t anomaly_duration_sec = 240;
  int64_t post_anomaly_sec = 60;

  dbsim::SimConfig sim = {
      .cpu_cores = 8.0,
      .io_capacity_ms_per_sec = 8000.0,
      .monitoring = dbsim::MonitoringConfig::kNormal,
      .lock_wait_timeout_ms = 50'000.0,
  };

  /// A template is ground-truth H-SQL when its true-session inflation is
  /// at least this fraction of the strongest inflation (and non-trivial in
  /// absolute terms).
  double hsql_truth_fraction = 0.25;
  double hsql_truth_min_abs = 0.5;

  /// Optional: invoked after the anomaly injection is materialized and
  /// before arrivals are generated, so a study can pin the injected
  /// anomaly's severity (random draws can be too mild, or drown in an
  /// already-loaded baseline). The injected template is
  /// `workload->templates.back()`.
  std::function<void(workload::Workload*, workload::Injection*)>
      shape_injection;
};

/// One generated anomaly case: everything PinSQL and the baselines consume
/// plus the ground truth labels.
struct AnomalyCaseData {
  workload::AnomalyType type = workload::AnomalyType::kBusinessSpike;
  workload::Workload workload;  // includes injected templates
  LogStore logs;
  dbsim::InstanceMetrics metrics;  // over [window_start, window_end)
  int64_t window_start_sec = 0;
  int64_t window_end_sec = 0;
  int64_t injected_as = 0;
  int64_t injected_ae = 0;

  /// Anomaly detection output; when detection misses, detected=false and
  /// the injected period is used as fallback.
  bool detected = false;
  int64_t detected_as = 0;
  int64_t detected_ae = 0;
  std::vector<anomaly::Phenomenon> phenomena;

  /// Ground truth.
  std::vector<uint64_t> rsql_truth;
  std::vector<uint64_t> hsql_truth;

  /// The injected traffic overrides and the arrival-stream seed: together
  /// with `workload` they reproduce the case's exact arrivals (used by
  /// what-if re-simulation, e.g. the optimization-gain study).
  std::vector<workload::RateOverride> overrides;
  uint64_t arrival_seed = 0;

  /// #execution history 1/3/7 "days" ago for pre-existing templates.
  core::MapHistoryProvider history;

  /// The anomaly period the diagnosis should use.
  int64_t anomaly_start() const { return detected ? detected_as : injected_as; }
  int64_t anomaly_end() const { return detected ? detected_ae : injected_ae; }
};

/// Simulates one case end-to-end: random workload -> anomaly injection ->
/// event simulation -> monitor metrics + query logs -> anomaly detection
/// -> ground-truth labeling -> history windows.
AnomalyCaseData GenerateCase(const CaseGenOptions& options);

/// Pins the injected anomaly's severity where a random draw can be too mild
/// to matter: poor-SQL and row-lock injections get a fixed CPU cost and
/// rate, row locks also a fixed hot-group contention. Other types run as
/// drawn (the extended categories already target a concurrency band in
/// their builders). Shared by the online E2E, detection and closed-loop
/// evaluations.
void PinInjectionSeverity(workload::AnomalyType type,
                          workload::Workload* workload,
                          workload::Injection* injection);

/// The series value at `sec`, NaN where the series does not cover it (a
/// telemetry gap).
double SeriesValue(const TimeSeries& series, int64_t sec);

}  // namespace pinsql::eval

#endif  // PINSQL_EVAL_CASE_GENERATOR_H_
