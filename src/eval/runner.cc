#include "eval/runner.h"

#include <algorithm>

#include "baselines/causal_corr.h"
#include <chrono>
#include <memory>
#include <unordered_set>

#include "util/strings.h"
#include "util/thread_pool.h"

namespace pinsql::eval {

void ForEachCase(
    const EvalOptions& options,
    const std::function<void(size_t, const AnomalyCaseData&)>& fn) {
  for (int i = 0; i < options.num_cases; ++i) {
    CaseGenOptions cg = options.case_options;
    cg.seed = options.seed + static_cast<uint64_t>(i) * 1000003ULL;
    cg.type = options.types[static_cast<size_t>(i) % options.types.size()];
    const AnomalyCaseData data = GenerateCase(cg);
    fn(static_cast<size_t>(i), data);
  }
}

core::DiagnosisInput MakeDiagnosisInput(const AnomalyCaseData& data) {
  core::DiagnosisInput input;
  input.logs = data.logs.SortedRecords();
  input.active_session = data.metrics.active_session;
  input.helper_metrics["cpu_usage"] = data.metrics.cpu_usage;
  input.helper_metrics["iops_usage"] = data.metrics.iops_usage;
  input.helper_metrics["row_lock_waits"] = data.metrics.row_lock_waits;
  input.helper_metrics["mdl_waits"] = data.metrics.mdl_waits;
  input.anomaly_start_sec = data.anomaly_start();
  input.anomaly_end_sec = data.anomaly_end();
  input.history = &data.history;
  return input;
}

int RsqlRank(const std::vector<uint64_t>& ranking,
             const AnomalyCaseData& data) {
  return FirstHitRank(ranking, std::unordered_set<uint64_t>(
                                   data.rsql_truth.begin(),
                                   data.rsql_truth.end()));
}

int HsqlRank(const std::vector<uint64_t>& ranking,
             const AnomalyCaseData& data) {
  return FirstHitRank(ranking, std::unordered_set<uint64_t>(
                                   data.hsql_truth.begin(),
                                   data.hsql_truth.end()));
}

void MethodAccumulator::AddCase(const std::vector<uint64_t>& rsql_ranking,
                                const std::vector<uint64_t>& hsql_ranking,
                                const AnomalyCaseData& data, double seconds) {
  AddRanks(RsqlRank(rsql_ranking, data), HsqlRank(hsql_ranking, data),
           seconds);
}

void MethodAccumulator::AddRanks(int rsql_rank, int hsql_rank,
                                 double seconds) {
  rsql_.Add(rsql_rank);
  hsql_.Add(hsql_rank);
  time_sum_ += seconds;
  ++time_count_;
}

void StageTimingAggregate::AddTrace(const obs::PipelineTrace& trace) {
  ++cases;
  total_seconds += trace.total_seconds;
  for (const obs::StageTrace& s : trace.stages) {
    Stage* slot = nullptr;
    for (Stage& existing : stages) {
      if (existing.name == s.name) {
        slot = &existing;
        break;
      }
    }
    if (slot == nullptr) {
      stages.push_back(Stage{s.name, 0.0, 0.0, 0});
      slot = &stages.back();
    }
    slot->total_seconds += s.seconds;
    slot->max_seconds = std::max(slot->max_seconds, s.seconds);
    ++slot->cases;
  }
}

std::string StageTimingAggregate::ToTable() const {
  double stage_sum = 0.0;
  for (const Stage& s : stages) stage_sum += s.total_seconds;
  std::string out = StrFormat("stage timings across %zu cases:\n", cases);
  out += StrFormat("  %-20s %10s %10s %10s %7s\n", "stage", "total(s)",
                   "mean(s)", "max(s)", "share");
  for (const Stage& s : stages) {
    const double mean =
        s.cases == 0 ? 0.0 : s.total_seconds / static_cast<double>(s.cases);
    const double share =
        stage_sum > 0.0 ? 100.0 * s.total_seconds / stage_sum : 0.0;
    out += StrFormat("  %-20s %10.4f %10.4f %10.4f %6.1f%%\n",
                     s.name.c_str(), s.total_seconds, mean, s.max_seconds,
                     share);
  }
  out += StrFormat("  %-20s %10.4f\n", "pipeline total", total_seconds);
  return out;
}

MethodScores MethodAccumulator::Summary() const {
  MethodScores s;
  s.name = name_;
  s.rsql = rsql_.Summary();
  s.hsql = hsql_.Summary();
  s.mean_time_sec =
      time_count_ == 0 ? 0.0 : time_sum_ / static_cast<double>(time_count_);
  return s;
}

namespace {

/// Per-case measurements, accumulated after the (possibly concurrent)
/// case runs so the fold order is always the case order.
struct CaseOutcome {
  int pin_rsql = 0;
  int pin_hsql = 0;
  double pin_seconds = 0.0;
  int en_r = 0, en_h = 0, rt_r = 0, rt_h = 0, er_r = 0, er_h = 0;
  double top_seconds = 0.0;
  int corr_r = 0, corr_h = 0;
  double corr_seconds = 0.0;
  obs::PipelineTrace trace;
};

CaseOutcome RunOneCase(const EvalOptions& options,
                       const core::DiagnoserOptions& diagnoser,
                       size_t index) {
  CaseGenOptions cg = options.case_options;
  cg.seed = options.seed + static_cast<uint64_t>(index) * 1000003ULL;
  cg.type = options.types[index % options.types.size()];
  const AnomalyCaseData data = GenerateCase(cg);

  CaseOutcome out;
  const core::DiagnosisInput input = MakeDiagnosisInput(data);
  // Generated cases are well-formed, so a non-ok Status here means the
  // harness produced unusable telemetry; score the case as a full miss.
  const StatusOr<core::DiagnosisResult> status_or =
      core::Diagnose(input, diagnoser);
  if (!status_or.ok()) return out;
  const core::DiagnosisResult& result = *status_or;
  out.pin_rsql = RsqlRank(result.rsql.ranking, data);
  out.pin_hsql = HsqlRank(result.TopHsql(result.hsql_ranking.size()), data);
  out.pin_seconds = result.total_seconds;
  out.trace = result.trace;

  const auto t0 = std::chrono::steady_clock::now();
  const baselines::TopSqlRankings tops = baselines::RankAllTopSql(
      result.metrics, input.anomaly_start_sec, input.anomaly_end_sec);
  out.top_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() /
      3.0;

  out.en_r = RsqlRank(tops.by_execution, data);
  out.en_h = HsqlRank(tops.by_execution, data);
  out.rt_r = RsqlRank(tops.by_response_time, data);
  out.rt_h = HsqlRank(tops.by_response_time, data);
  out.er_r = RsqlRank(tops.by_examined_rows, data);
  out.er_h = HsqlRank(tops.by_examined_rows, data);

  // The causality heuristic sees the same aggregated metrics plus the
  // instance symptom — nothing PinSQL does not also consume.
  const auto t1 = std::chrono::steady_clock::now();
  const std::vector<uint64_t> corr = baselines::RankCausalCorr(
      result.metrics, data.metrics.active_session);
  out.corr_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();
  out.corr_r = RsqlRank(corr, data);
  out.corr_h = HsqlRank(corr, data);
  return out;
}

}  // namespace

std::vector<MethodScores> RunOverallEvaluation(
    const EvalOptions& options, const core::DiagnoserOptions& diagnoser,
    StageTimingAggregate* stage_timings) {
  MethodAccumulator pinsql("PinSQL");
  MethodAccumulator top_en("Top-EN");
  MethodAccumulator top_rt("Top-RT");
  MethodAccumulator top_er("Top-ER");
  MethodAccumulator top_all("Top-All");
  MethodAccumulator corr_lag("Corr-Lag");

  // Fleet mode: each case is an independent instance (own generator seed,
  // own logs/metrics), so cases fan out across the pool; outcomes land in
  // index-addressed slots and are folded serially below.
  const size_t num_cases = static_cast<size_t>(options.num_cases);
  std::vector<CaseOutcome> outcomes(num_cases);
  std::unique_ptr<util::ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<util::ThreadPool>(options.num_threads);
  }
  util::ParallelFor(pool.get(), num_cases, [&](size_t index) {
    outcomes[index] = RunOneCase(options, diagnoser, index);
  });

  for (const CaseOutcome& out : outcomes) {
    if (stage_timings != nullptr) stage_timings->AddTrace(out.trace);
    pinsql.AddRanks(out.pin_rsql, out.pin_hsql, out.pin_seconds);
    top_en.AddRanks(out.en_r, out.en_h, out.top_seconds);
    top_rt.AddRanks(out.rt_r, out.rt_h, out.top_seconds);
    top_er.AddRanks(out.er_r, out.er_h, out.top_seconds);

    // Top-All: the best variant per case (paper Sec. VIII-A), 0 = miss.
    auto best = [](int a, int b) {
      if (a == 0) return b;
      if (b == 0) return a;
      return std::min(a, b);
    };
    top_all.AddRanks(best(best(out.en_r, out.rt_r), out.er_r),
                     best(best(out.en_h, out.rt_h), out.er_h),
                     out.top_seconds * 3.0);
    corr_lag.AddRanks(out.corr_r, out.corr_h, out.corr_seconds);
  }

  // Corr-Lag rides last so existing positional consumers of the first
  // five rows keep working; new consumers should look methods up by name.
  return {pinsql.Summary(),  top_rt.Summary(),   top_er.Summary(),
          top_en.Summary(),  top_all.Summary(),  corr_lag.Summary()};
}

}  // namespace pinsql::eval
