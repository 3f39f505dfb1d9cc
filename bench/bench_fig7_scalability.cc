/// Fig. 7 reproduction: scalability of PinSQL — computing time as a
/// function of (left) the number of SQL templates and (right) the anomaly
/// period length.
///
/// Paper reference: even the slowest cases stay under a minute; runtime
/// correlates with the anomaly period length more than with the template
/// count.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "eval/runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ts/stats.h"

namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// Diagnoses one generated case; returns the total diagnosis time. When
/// `estimate_us_per_sec` is non-null it receives the session-estimation
/// stage time per diagnosis-window second.
double RunOneCase(const pinsql::eval::CaseGenOptions& options,
                  bool use_injected_period, size_t* num_templates,
                  int64_t* anomaly_len,
                  double* estimate_us_per_sec = nullptr) {
  const pinsql::eval::AnomalyCaseData data =
      pinsql::eval::GenerateCase(options);
  pinsql::core::DiagnosisInput input =
      pinsql::eval::MakeDiagnosisInput(data);
  if (use_injected_period) {
    // The sweep controls the anomaly length exactly; detection jitter
    // would blur the controlled variable.
    input.anomaly_start_sec = data.injected_as;
    input.anomaly_end_sec = data.injected_ae;
  }
  const pinsql::core::DiagnosisResult result =
      pinsql::core::Diagnose(input, pinsql::core::DiagnoserOptions{})
          .value();
  *num_templates = result.metrics.num_templates();
  *anomaly_len = input.anomaly_end_sec - input.anomaly_start_sec;
  if (estimate_us_per_sec != nullptr) {
    *estimate_us_per_sec = result.estimate_seconds * 1e6 /
                           static_cast<double>(result.te_sec - result.ts_sec);
  }
  return result.total_seconds;
}

/// `--trace` mode: diagnose one large case with span recording on and
/// print the per-stage profile instead of running the full sweeps. Used as
/// a fast CI smoke for the observability layer.
int RunTraceMode(uint64_t seed) {
  pinsql::eval::CaseGenOptions large;
  large.seed = seed + 991;
  large.type = pinsql::workload::AnomalyType::kRowLock;
  large.scenario.num_clusters = 28;
  large.scenario.num_tables = 28;
  large.scenario.min_cluster_qps = 360.0 / 28.0;
  large.scenario.max_cluster_qps = 760.0 / 28.0;
  large.anomaly_duration_sec = 480;
  const pinsql::eval::AnomalyCaseData data =
      pinsql::eval::GenerateCase(large);
  const pinsql::core::DiagnosisInput input =
      pinsql::eval::MakeDiagnosisInput(data);

  pinsql::obs::TraceRecorder recorder;
  pinsql::core::DiagnoserOptions options;
  options.num_threads = 4;
  options.trace = &recorder;
  const pinsql::core::DiagnosisResult result =
      pinsql::core::Diagnose(input, options).value();

  std::printf("PER-STAGE TRACE (num_threads=%d)\n", options.num_threads);
  std::printf("%s", result.trace.ToTable().c_str());
  if (pinsql::obs::kEnabled) {
    std::printf("\nSPAN SUMMARY (%zu events recorded)\n",
                recorder.event_count());
    std::printf("%s", recorder.SummaryTable().c_str());
  } else {
    std::printf("\n(span recording compiled out: PINSQL_DISABLE_OBS)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("PINSQL_BENCH_SEED", 7));
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) return RunTraceMode(seed);
  }

  std::printf("FIG 7 (left): computing time vs number of SQL templates\n");
  std::printf("%10s %12s %14s\n", "#templates", "anomaly(s)", "time(s)");
  std::vector<double> sizes;
  std::vector<double> times_by_size;
  for (int clusters : {3, 6, 12, 24, 40}) {
    pinsql::eval::CaseGenOptions options;
    options.seed = seed + static_cast<uint64_t>(clusters);
    options.type = pinsql::workload::AnomalyType::kRowLock;
    options.scenario.num_clusters = clusters;
    options.scenario.num_tables = std::max(10, clusters);
    // Keep total traffic roughly constant so only the template count
    // scales.
    options.scenario.min_cluster_qps = 180.0 / clusters;
    options.scenario.max_cluster_qps = 420.0 / clusters;
    size_t templates = 0;
    int64_t anomaly_len = 0;
    const double secs =
        RunOneCase(options, /*use_injected_period=*/false, &templates,
                   &anomaly_len);
    std::printf("%10zu %12lld %14.3f\n", templates,
                static_cast<long long>(anomaly_len), secs);
    sizes.push_back(static_cast<double>(templates));
    times_by_size.push_back(secs);
  }

  std::printf("\nFIG 7 (right): computing time vs anomaly period length\n");
  std::printf("%10s %12s %14s %18s\n", "#templates", "anomaly(s)", "time(s)",
              "estimate(us/win-s)");
  std::vector<double> lengths;
  std::vector<double> times_by_length;
  double max_time = 0.0;
  double min_estimate_rate = 1e300;
  double max_estimate_rate = 0.0;
  for (int64_t duration : {120, 300, 600, 1200, 2400}) {
    pinsql::eval::CaseGenOptions options;
    // One seed for the whole sweep: identical workload and injection, so
    // the anomaly length is the only variable.
    options.seed = seed;
    options.type = pinsql::workload::AnomalyType::kBusinessSpike;
    options.anomaly_duration_sec = duration;
    size_t templates = 0;
    int64_t anomaly_len = 0;
    double estimate_rate = 0.0;
    const double secs =
        RunOneCase(options, /*use_injected_period=*/true, &templates,
                   &anomaly_len, &estimate_rate);
    std::printf("%10zu %12lld %14.3f %18.1f\n", templates,
                static_cast<long long>(anomaly_len), secs, estimate_rate);
    min_estimate_rate = std::min(min_estimate_rate, estimate_rate);
    max_estimate_rate = std::max(max_estimate_rate, estimate_rate);
    lengths.push_back(static_cast<double>(anomaly_len));
    times_by_length.push_back(secs);
    max_time = std::max(max_time, secs);
  }

  // ---- Thread sweep (beyond the paper): parallel diagnosis engine -------
  // One large synthetic case, diagnosed repeatedly with the same input and
  // a varying DiagnoserOptions::num_threads. The parallel stages are
  // bit-identical to the serial ones (tests/parallel_equivalence_test.cc
  // proves it), so this axis measures pure speedup.
  std::printf("\nTHREAD SWEEP: end-to-end diagnosis time vs num_threads "
              "(large case)\n");
  std::printf("  hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  pinsql::eval::CaseGenOptions large;
  large.seed = seed + 991;
  large.type = pinsql::workload::AnomalyType::kRowLock;
  large.scenario.num_clusters = 28;
  large.scenario.num_tables = 28;
  large.scenario.min_cluster_qps = 360.0 / 28.0;
  large.scenario.max_cluster_qps = 760.0 / 28.0;
  large.anomaly_duration_sec = 480;
  const pinsql::eval::AnomalyCaseData large_case =
      pinsql::eval::GenerateCase(large);
  const pinsql::core::DiagnosisInput large_input =
      pinsql::eval::MakeDiagnosisInput(large_case);

  std::printf("%10s %12s %10s\n", "threads", "time(s)", "speedup");
  double serial_time = 0.0;
  double best_speedup = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    pinsql::core::DiagnoserOptions options;
    options.num_threads = threads;
    // Best of 2 runs absorbs one-off warmup noise (page faults, pool
    // spin-up).
    double secs = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      const pinsql::core::DiagnosisResult result =
          pinsql::core::Diagnose(large_input, options).value();
      secs = std::min(secs, result.total_seconds);
    }
    if (threads == 1) serial_time = secs;
    const double speedup = serial_time / secs;
    best_speedup = std::max(best_speedup, speedup);
    std::printf("%10d %12.3f %9.2fx\n", threads, secs, speedup);
  }

  // Fleet mode: independent cases diagnosed concurrently by eval::Runner.
  std::printf("\nFLEET SWEEP: evaluation batch wall-clock vs fleet "
              "num_threads (12 cases)\n");
  std::printf("%10s %12s %10s\n", "threads", "time(s)", "speedup");
  double fleet_serial = 0.0;
  for (const int threads : {1, 4}) {
    pinsql::eval::EvalOptions eval_options;
    eval_options.num_cases = 12;
    eval_options.seed = seed;
    eval_options.num_threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    const auto scores =
        pinsql::eval::RunOverallEvaluation(eval_options,
                                           pinsql::core::DiagnoserOptions{});
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    (void)scores;
    if (threads == 1) fleet_serial = secs;
    std::printf("%10d %12.3f %9.2fx\n", threads, secs, fleet_serial / secs);
  }

  const double corr_length =
      pinsql::PearsonCorrelation(lengths, times_by_length);
  std::printf("\nshape checks:\n");
  std::printf("  slowest diagnosis %.2fs < 60s: %s\n", max_time,
              max_time < 60.0 ? "OK" : "VIOLATED");
  std::printf("  time correlates with anomaly length (corr=%.2f > 0.8): "
              "%s\n",
              corr_length, corr_length > 0.8 ? "OK" : "VIOLATED");
  // Linear session estimation: its cost per window-second is flat across
  // the length sweep.
  const double estimate_spread = max_estimate_rate / min_estimate_rate;
  std::printf("  session estimation per window-second varies %.2fx < 2x: "
              "%s\n",
              estimate_spread, estimate_spread < 2.0 ? "OK" : "VIOLATED");
  std::printf("  8-thread diagnosis speedup %.2fx >= 2.5x: %s%s\n",
              best_speedup, best_speedup >= 2.5 ? "OK" : "VIOLATED",
              std::thread::hardware_concurrency() < 8
                  ? " (machine has < 8 hardware threads; rerun on a "
                    "multi-core host)"
                  : "");
  return 0;
}
