#include "eval/detection_eval.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "detect/forecast.h"
#include "eval/metrics.h"
#include "util/thread_pool.h"

namespace pinsql::eval {
namespace {

/// True when the reference screen (the legacy robust-z + Pettitt pipeline
/// at stock options) fires inside the pre-anomaly window. The draw's
/// "clean" baseline then contains an uninjected anomaly — a transient
/// burst real enough to confirm — and every trigger on it would be scored
/// a false positive no matter how correct the detection. Such draws
/// measure the generator, not the detector, so admission re-draws them.
/// Only the pre-anomaly slice is screened: gating on whether the screen
/// *places the injected anomaly* would bias against exactly the creep
/// categories the screen is supposed to miss.
bool BaselineHasUninjectedAnomaly(const AnomalyCaseData& data) {
  online::OnlineAnomalyDetector screen{online::OnlineDetectorOptions{}};
  for (int64_t sec = data.window_start_sec; sec < data.injected_as; ++sec) {
    const auto trigger =
        screen.Observe(sec, SeriesValue(data.metrics.active_session, sec));
    if (trigger.has_value()) return true;
  }
  return false;
}

/// Mean active sessions over [window_start, injected_as): the baseline
/// health probe the admission filter gates on.
double PreAnomalyMeanSessions(const AnomalyCaseData& data) {
  double sum = 0.0;
  size_t n = 0;
  for (int64_t sec = data.window_start_sec; sec < data.injected_as; ++sec) {
    const double v = SeriesValue(data.metrics.active_session, sec);
    if (std::isfinite(v)) {
      sum += v;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

/// Detection outcome of one (case, family) pair.
struct CaseDetection {
  bool detected = false;
  double latency_sec = -1.0;
  size_t false_triggers = 0;
};

CaseDetection ReplayCaseIntoDetector(const AnomalyCaseData& data,
                                     const DetectionEvalOptions& options,
                                     const DetectorFamilyConfig& family) {
  CaseDetection out;
  online::OnlineAnomalyDetector detector(family.detector);
  const int64_t lo = data.injected_as - options.onset_tolerance_sec;
  const int64_t hi = data.injected_ae + options.onset_tolerance_sec;
  for (int64_t sec = data.window_start_sec; sec < data.window_end_sec;
       ++sec) {
    const auto trigger =
        detector.Observe(sec, SeriesValue(data.metrics.active_session, sec));
    if (!trigger.has_value()) continue;
    const bool in_anomaly =
        trigger->onset_sec >= lo && trigger->onset_sec <= hi;
    if (in_anomaly) {
      if (!out.detected) {
        out.detected = true;
        out.latency_sec = static_cast<double>(std::max<int64_t>(
            0, trigger->trigger_sec - data.injected_as));
      }
    } else {
      ++out.false_triggers;
    }
  }
  return out;
}

}  // namespace

std::vector<DetectorFamilyConfig> StandardDetectorFamilies() {
  std::vector<DetectorFamilyConfig> families;

  DetectorFamilyConfig screen;
  screen.name = "screen";
  families.push_back(screen);

  const std::vector<detect::ForecastOptions> stock =
      detect::DefaultEnsembleForecasters();

  DetectorFamilyConfig ewma;
  ewma.name = "ewma";
  ewma.detector.use_screen = false;
  ewma.detector.forecasters = {stock[0]};
  families.push_back(ewma);

  DetectorFamilyConfig holt;
  holt.name = "holt";
  holt.detector.use_screen = false;
  holt.detector.forecasters = {stock[1]};
  families.push_back(holt);

  DetectorFamilyConfig hw;
  hw.name = "holt_winters";
  hw.detector.use_screen = false;
  detect::ForecastOptions hw_options;
  hw_options.method = detect::ForecastMethod::kHoltWinters;
  hw_options.alpha = 0.1;
  hw_options.beta = 0.02;
  hw_options.gamma = 0.05;
  // The synthetic workloads oscillate at 240-900 s; one mid-band season.
  hw_options.seasonal_period = 300;
  hw_options.threshold = 8.0;
  hw_options.cusum_k = 0.8;
  hw_options.cusum_h = 30.0;
  hw.detector.forecasters = {hw_options};
  families.push_back(hw);

  DetectorFamilyConfig ensemble;
  ensemble.name = "ensemble";
  ensemble.detector.forecasters = stock;
  families.push_back(ensemble);

  return families;
}

const CategoryDetection* DetectionEvalResult::Find(
    workload::AnomalyType type) const {
  for (const CategoryDetection& c : categories) {
    if (c.type == type) return &c;
  }
  return nullptr;
}

double DetectionEvalResult::LegacyRecall() const {
  return legacy_cases > 0 ? static_cast<double>(legacy_detected) /
                                static_cast<double>(legacy_cases)
                          : 0.0;
}

double DetectionEvalResult::ExtendedRecall() const {
  return extended_cases > 0 ? static_cast<double>(extended_detected) /
                                  static_cast<double>(extended_cases)
                            : 0.0;
}

std::vector<DetectionEvalResult> RunDetectionAblation(
    const DetectionEvalOptions& options,
    const std::vector<DetectorFamilyConfig>& families) {
  const size_t num_categories = options.categories.size();
  const size_t cases_per = static_cast<size_t>(
      std::max(options.cases_per_category, 0));
  const size_t total_cases = num_categories * cases_per;

  // One generated case per (category, index); each family replays the
  // identical stream. outcomes[case][family].
  std::vector<std::vector<CaseDetection>> outcomes(
      total_cases, std::vector<CaseDetection>(families.size()));

  std::unique_ptr<util::ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<util::ThreadPool>(options.num_threads);
  }
  util::ParallelFor(pool.get(), total_cases, [&](size_t slot) {
    const size_t cat_idx = slot / cases_per;
    const size_t case_idx = slot % cases_per;
    const workload::AnomalyType type = options.categories[cat_idx];

    CaseGenOptions cg = options.case_options;
    cg.type = type;
    cg.shape_injection = [type](workload::Workload* workload,
                                workload::Injection* injection) {
      PinInjectionSeverity(type, workload, injection);
    };
    if (type == workload::AnomalyType::kSlowDrift) {
      cg.pre_anomaly_sec = options.drift_pre_anomaly_sec;
      cg.anomaly_duration_sec = options.drift_anomaly_duration_sec;
      cg.post_anomaly_sec = options.drift_post_anomaly_sec;
    }
    const uint64_t base_seed =
        options.seed + cat_idx * 7'000'003ULL + case_idx * 1000003ULL;
    AnomalyCaseData data;
    for (size_t regen = 0;; ++regen) {
      cg.seed = base_seed + regen * 0x9E3779B9ULL;
      data = GenerateCase(cg);
      if (regen >= options.max_case_regens) break;
      const bool sane =
          PreAnomalyMeanSessions(data) <= options.max_baseline_mean_sessions &&
          !(options.require_quiet_baseline &&
            BaselineHasUninjectedAnomaly(data));
      if (sane) break;
    }
    for (size_t f = 0; f < families.size(); ++f) {
      outcomes[slot][f] = ReplayCaseIntoDetector(data, options, families[f]);
    }
  });

  // Serial fold in (family, category, case) order: deterministic at any
  // thread count.
  std::vector<DetectionEvalResult> results(families.size());
  for (size_t f = 0; f < families.size(); ++f) {
    DetectionEvalResult& result = results[f];
    result.family = families[f].name;
    for (size_t cat_idx = 0; cat_idx < num_categories; ++cat_idx) {
      CategoryDetection cat;
      cat.type = options.categories[cat_idx];
      std::vector<double> latencies;
      for (size_t case_idx = 0; case_idx < cases_per; ++case_idx) {
        const CaseDetection& out =
            outcomes[cat_idx * cases_per + case_idx][f];
        ++cat.cases;
        if (out.detected) {
          ++cat.detected;
          latencies.push_back(out.latency_sec);
        }
        cat.false_triggers += out.false_triggers;
      }
      cat.recall = cat.cases > 0 ? static_cast<double>(cat.detected) /
                                       static_cast<double>(cat.cases)
                                 : 0.0;
      cat.median_latency_sec = MedianOf(std::move(latencies));
      if (workload::IsLegacyAnomalyType(cat.type)) {
        result.legacy_cases += cat.cases;
        result.legacy_detected += cat.detected;
        result.legacy_false_triggers += cat.false_triggers;
      } else {
        result.extended_cases += cat.cases;
        result.extended_detected += cat.detected;
        result.extended_false_triggers += cat.false_triggers;
      }
      result.categories.push_back(std::move(cat));
    }
  }
  return results;
}

DetectionEvalResult RunDetectionEval(const DetectionEvalOptions& options,
                                     const DetectorFamilyConfig& family) {
  return RunDetectionAblation(options, {family}).front();
}

}  // namespace pinsql::eval
