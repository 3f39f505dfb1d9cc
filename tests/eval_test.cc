#include <set>

#include <gtest/gtest.h>

#include "eval/case_generator.h"
#include "eval/runner.h"
#include "obs/trace.h"

namespace pinsql::eval {
namespace {

CaseGenOptions SmallCase(workload::AnomalyType type, uint64_t seed) {
  CaseGenOptions options;
  options.type = type;
  options.seed = seed;
  // Smaller than the benchmark defaults to keep the test quick.
  options.scenario.num_clusters = 3;
  options.scenario.min_templates_per_cluster = 5;
  options.scenario.max_templates_per_cluster = 10;
  options.pre_anomaly_sec = 300;
  options.anomaly_duration_sec = 150;
  options.post_anomaly_sec = 40;
  return options;
}

TEST(CaseGeneratorTest, WindowLayoutIsConsistent) {
  const AnomalyCaseData data =
      GenerateCase(SmallCase(workload::AnomalyType::kPoorSql, 1));
  EXPECT_EQ(data.injected_as, data.window_start_sec + 300);
  EXPECT_EQ(data.injected_ae, data.injected_as + 150);
  EXPECT_EQ(data.window_end_sec, data.injected_ae + 40);
  EXPECT_EQ(data.metrics.active_session.start_time(),
            data.window_start_sec);
  EXPECT_EQ(data.metrics.active_session.end_time(), data.window_end_sec);
}

TEST(CaseGeneratorTest, LogsStayInsideWindow) {
  const AnomalyCaseData data =
      GenerateCase(SmallCase(workload::AnomalyType::kBusinessSpike, 2));
  ASSERT_GT(data.logs.size(), 0u);
  for (const QueryLogRecord& rec : data.logs.SortedRecords()) {
    EXPECT_GE(rec.arrival_ms, data.window_start_sec * 1000);
    EXPECT_LT(rec.arrival_ms, data.window_end_sec * 1000);
    EXPECT_GE(rec.response_ms, 0.0);
  }
}

TEST(CaseGeneratorTest, EveryLoggedTemplateIsInCatalog) {
  const AnomalyCaseData data =
      GenerateCase(SmallCase(workload::AnomalyType::kRowLock, 3));
  std::set<uint64_t> seen;
  for (const QueryLogRecord& rec : data.logs.SortedRecords()) {
    seen.insert(rec.sql_id);
  }
  for (uint64_t id : seen) {
    EXPECT_NE(data.logs.FindTemplate(id), nullptr)
        << "unregistered template " << id;
  }
}

TEST(CaseGeneratorTest, RsqlTruthIsNonEmptyAndResolvable) {
  for (auto type : {workload::AnomalyType::kBusinessSpike,
                    workload::AnomalyType::kPoorSql,
                    workload::AnomalyType::kMdlLock,
                    workload::AnomalyType::kRowLock}) {
    const AnomalyCaseData data = GenerateCase(SmallCase(type, 4));
    ASSERT_FALSE(data.rsql_truth.empty());
    for (uint64_t id : data.rsql_truth) {
      EXPECT_NE(data.workload.FindTemplate(id), nullptr);
    }
  }
}

TEST(CaseGeneratorTest, OverridesReproduceIdenticalArrivals) {
  const AnomalyCaseData data =
      GenerateCase(SmallCase(workload::AnomalyType::kPoorSql, 5));
  const auto a = workload::GenerateArrivals(
      data.workload, data.overrides, data.window_start_sec,
      data.window_end_sec, data.arrival_seed);
  const auto b = workload::GenerateArrivals(
      data.workload, data.overrides, data.window_start_sec,
      data.window_end_sec, data.arrival_seed);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), data.logs.size() +
                          0u);  // every arrival produced one log record
  for (size_t i = 0; i < std::min<size_t>(a.size(), 50); ++i) {
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms);
    EXPECT_EQ(a[i].spec.sql_id, b[i].spec.sql_id);
  }
}

TEST(CaseGeneratorTest, HistoryWindowsDifferAcrossDays) {
  const AnomalyCaseData data =
      GenerateCase(SmallCase(workload::AnomalyType::kBusinessSpike, 6));
  const workload::TemplateDef* tpl = nullptr;
  for (const auto& t : data.workload.templates) {
    if (t.weight > 0.0) {
      tpl = &t;
      break;
    }
  }
  ASSERT_NE(tpl, nullptr);
  const TimeSeries* d1 = data.history.ExecutionHistory(tpl->sql_id, 1);
  const TimeSeries* d3 = data.history.ExecutionHistory(tpl->sql_id, 3);
  ASSERT_NE(d1, nullptr);
  ASSERT_NE(d3, nullptr);
  EXPECT_EQ(d1->size(), d3->size());
  EXPECT_NE(d1->values(), d3->values());  // different realizations
}

TEST(CaseGeneratorTest, HsqlTruthRequiresRelativeInflation) {
  const AnomalyCaseData data =
      GenerateCase(SmallCase(workload::AnomalyType::kMdlLock, 7));
  ASSERT_FALSE(data.hsql_truth.empty());
  // Every labeled H-SQL must genuinely inflate during the anomaly.
  const auto sessions = data.metrics.active_session;  // instance level
  EXPECT_GT(sessions.Slice(data.injected_as, data.injected_ae).Mean(),
            sessions.Slice(data.window_start_sec, data.injected_as).Mean());
}

// ------------------------------------------------------------------ Runner

TEST(RunnerTest, ForEachCaseCyclesTypesAndSeeds) {
  EvalOptions options;
  options.num_cases = 4;
  options.seed = 9;
  options.case_options = SmallCase(workload::AnomalyType::kBusinessSpike, 0);
  options.types = {workload::AnomalyType::kBusinessSpike,
                   workload::AnomalyType::kPoorSql};
  std::vector<workload::AnomalyType> seen;
  ForEachCase(options, [&](size_t index, const AnomalyCaseData& data) {
    (void)index;
    seen.push_back(data.type);
  });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], workload::AnomalyType::kBusinessSpike);
  EXPECT_EQ(seen[1], workload::AnomalyType::kPoorSql);
  EXPECT_EQ(seen[2], workload::AnomalyType::kBusinessSpike);
  EXPECT_EQ(seen[3], workload::AnomalyType::kPoorSql);
}

TEST(RunnerTest, MakeDiagnosisInputWiresEverything) {
  const AnomalyCaseData data =
      GenerateCase(SmallCase(workload::AnomalyType::kPoorSql, 10));
  const core::DiagnosisInput input = MakeDiagnosisInput(data);
  EXPECT_EQ(input.logs.data(), data.logs.SortedRecords().data());
  EXPECT_EQ(input.logs.size(), data.logs.size());
  EXPECT_EQ(input.history, &data.history);
  EXPECT_EQ(input.anomaly_start_sec, data.anomaly_start());
  EXPECT_EQ(input.anomaly_end_sec, data.anomaly_end());
  EXPECT_EQ(input.helper_metrics.size(), 4u);
  EXPECT_TRUE(input.helper_metrics.count("cpu_usage") > 0);
  EXPECT_TRUE(input.helper_metrics.count("mdl_waits") > 0);
}

TEST(RunnerTest, MethodAccumulatorAggregates) {
  MethodAccumulator acc("m");
  acc.AddRanks(1, 2, 0.5);
  acc.AddRanks(0, 1, 1.5);
  const MethodScores s = acc.Summary();
  EXPECT_EQ(s.name, "m");
  EXPECT_DOUBLE_EQ(s.rsql.hits_at_1, 50.0);
  EXPECT_DOUBLE_EQ(s.hsql.hits_at_5, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_time_sec, 1.0);
}

TEST(RunnerTest, StageTimingAggregateFoldsTraces) {
  StageTimingAggregate agg;
  obs::PipelineTrace first;
  first.total_seconds = 1.0;
  first.stages.push_back(obs::StageTrace{"session_estimation", 0.6, {}});
  first.stages.push_back(obs::StageTrace{"hsql_scoring", 0.4, {}});
  obs::PipelineTrace second;
  second.total_seconds = 2.0;
  second.stages.push_back(obs::StageTrace{"session_estimation", 1.4, {}});
  agg.AddTrace(first);
  agg.AddTrace(second);

  EXPECT_EQ(agg.cases, 2u);
  EXPECT_DOUBLE_EQ(agg.total_seconds, 3.0);
  ASSERT_EQ(agg.stages.size(), 2u);
  EXPECT_EQ(agg.stages[0].name, "session_estimation");
  EXPECT_DOUBLE_EQ(agg.stages[0].total_seconds, 2.0);
  EXPECT_DOUBLE_EQ(agg.stages[0].max_seconds, 1.4);
  EXPECT_EQ(agg.stages[0].cases, 2u);
  EXPECT_EQ(agg.stages[1].name, "hsql_scoring");
  EXPECT_EQ(agg.stages[1].cases, 1u);

  const std::string table = agg.ToTable();
  EXPECT_NE(table.find("session_estimation"), std::string::npos);
  EXPECT_NE(table.find("hsql_scoring"), std::string::npos);
}

TEST(RunnerTest, EvaluationCollectsStageTimings) {
  EvalOptions options;
  options.num_cases = 2;
  options.seed = 5;
  options.case_options = SmallCase(workload::AnomalyType::kBusinessSpike, 0);
  StageTimingAggregate agg;
  const auto scores =
      RunOverallEvaluation(options, core::DiagnoserOptions{}, &agg);
  EXPECT_FALSE(scores.empty());
  EXPECT_EQ(agg.cases, 2u);
  ASSERT_FALSE(agg.stages.empty());
  EXPECT_EQ(agg.stages[0].name, "session_estimation");
  EXPECT_EQ(agg.stages[0].cases, 2u);
}

}  // namespace
}  // namespace pinsql::eval
