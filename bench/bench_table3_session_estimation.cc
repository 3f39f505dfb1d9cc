/// Table III reproduction: accuracy of the individual active-session
/// estimation. Compares three estimators against the monitor's sampled
/// active session over an anomaly window:
///   - Estimate by RT        (total response time per second / 1000)
///   - Estimate w/o buckets  (whole-second expectation)
///   - Estimate (K=10)       (the paper's bucketed method)
/// Paper reference: Pearson 0.54 / 0.92 / 0.96, MSE decreasing.
///
/// Exits with the number of violated shape checks (0 = all hold), so CI
/// fails on an estimator regression.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/session_estimator.h"
#include "eval/case_generator.h"
#include "ts/stats.h"

namespace {

struct Row {
  const char* name;
  pinsql::core::SessionEstimatorOptions options;
};

}  // namespace

int main() {
  using pinsql::core::SessionEstimatorMode;

  // A poor-SQL case gives the session a wide dynamic range, which is what
  // separates the estimators.
  pinsql::eval::CaseGenOptions case_options;
  case_options.type = pinsql::workload::AnomalyType::kPoorSql;
  case_options.seed = 1234;
  const pinsql::eval::AnomalyCaseData data =
      pinsql::eval::GenerateCase(case_options);

  const pinsql::TimeSeries& observed = data.metrics.active_session;
  const int64_t ts = data.window_start_sec;
  const int64_t te = data.window_end_sec;

  Row rows[3] = {{"Estimate By RT", {}},
                 {"Estimate w/o buckets", {}},
                 {"Estimate (K=10)", {}}};
  rows[0].options.mode = SessionEstimatorMode::kResponseTime;
  rows[1].options.mode = SessionEstimatorMode::kNoBuckets;
  rows[2].options.mode = SessionEstimatorMode::kBucketed;
  rows[2].options.num_buckets = 10;

  std::printf("TABLE III: estimated active session vs monitor ground truth\n"
              "(window %llds, %zu log records; paper reference Pearson "
              "0.54 / 0.92 / 0.96)\n\n",
              static_cast<long long>(te - ts), data.logs.size());
  std::printf("%-22s %10s %14s\n", "Method", "Pearson", "MSE");
  std::printf("------------------------------------------------\n");

  double pearson[3] = {0, 0, 0};
  double mse[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    const pinsql::core::SessionEstimate est = pinsql::core::EstimateSessions(
        data.logs.SortedRecords(), observed, ts, te, rows[i].options);
    pearson[i] =
        pinsql::PearsonCorrelation(est.total.values(), observed.values());
    mse[i] = pinsql::MeanSquaredError(est.total.values(), observed.values());
    std::printf("%-22s %10.3f %14.2f\n", rows[i].name, pearson[i], mse[i]);
  }

  int violations = 0;
  const auto check = [&violations](const std::string& what, bool ok) {
    std::printf("  %s: %s\n", what.c_str(), ok ? "OK" : "VIOLATED");
    if (!ok) ++violations;
  };
  std::printf("\nshape checks:\n");
  check("bucketed > w/o buckets > by-RT (Pearson)",
        pearson[2] >= pearson[1] && pearson[1] > pearson[0]);
  // Accuracy floor of the K=10 estimator. The MSE bound is the value the
  // per-second estimator reached before the linear-time rewrite (1.31074,
  // printed as 1.31), rounded up at the fourth decimal.
  char bound[128];
  std::snprintf(bound, sizeof(bound),
                "K=10 Pearson %.5f >= 0.999 and MSE %.5f <= 1.3108",
                pearson[2], mse[2]);
  check(bound, pearson[2] >= 0.999 && mse[2] <= 1.3108);

  // Design-choice ablation (DESIGN.md §4.1): sweep the bucket count K.
  // K=1 equals the no-buckets expectation; returns diminish past ~10.
  std::printf("\nK sweep (bucket-count ablation):\n");
  std::printf("%6s %10s %14s\n", "K", "Pearson", "MSE");
  for (int k : {1, 2, 5, 10, 20, 50}) {
    pinsql::core::SessionEstimatorOptions options;
    options.mode = SessionEstimatorMode::kBucketed;
    options.num_buckets = k;
    const pinsql::core::SessionEstimate est = pinsql::core::EstimateSessions(
        data.logs.SortedRecords(), observed, ts, te, options);
    std::printf("%6d %10.4f %14.2f\n", k,
                pinsql::PearsonCorrelation(est.total.values(),
                                           observed.values()),
                pinsql::MeanSquaredError(est.total.values(),
                                         observed.values()));
  }
  return violations;
}
