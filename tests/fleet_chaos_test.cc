/// Chaos suite: per-instance fault injection at mixed severities across a
/// fleet. Faults must degrade only the instance they are injected into —
/// a clean instance's fleet result stays byte-identical to (a) the same
/// fleet with every other instance faulted and (b) a solo single-instance
/// replay of the same stream. Severity-0 plans are guaranteed no-ops.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "detect/forecast.h"
#include "eval/case_generator.h"
#include "eval/fleet_cases.h"
#include "eval/online_e2e.h"
#include "faults/fault_injector.h"
#include "fleet/fleet_replay.h"
#include "online/replay.h"

namespace pinsql::fleet {
namespace {

eval::FleetCaseOptions ChaosCaseOptions() {
  eval::FleetCaseOptions options;
  options.num_instances = 8;
  options.instances_per_host = 4;
  options.seed = 77;
  options.duration_sec = 300;
  // Independent incidents only: every instance's stream is self-contained,
  // so solo and fleet deployments are comparable one instance at a time.
  options.inject_noisy_host = false;
  options.anomaly_fraction = 0.5;
  return options;
}

FleetReplayOptions ChaosReplayOptions() {
  FleetReplayOptions options;
  options.fleet.ingestor.num_shards = 4;
  options.fleet.ingestor.window_sec = 900;
  options.fleet.scheduler.cooldown_sec = 120;
  options.fleet.scheduler.top_k = 3;
  options.fleet.pool.pool_size = 4;
  // Correlation off: cross-instance coupling is exactly what this suite
  // must prove absent.
  options.fleet.correlator.storm_min_instances = 0;
  options.fleet.correlator.neighbor_min_cotenants = 0;
  options.num_ingest_workers = 2;
  return options;
}

/// Severity per instance: 0, 0.3, 0.6, 0.9, 0, 0.3, ... — instances 0 and
/// 4 stay clean while their co-tenants degrade.
double SeverityFor(uint32_t instance_id) {
  return 0.3 * static_cast<double>(instance_id % 4);
}

TEST(FleetChaosTest, SeverityZeroPlanIsBitwiseNoOp) {
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(ChaosCaseOptions());
  online::ReplayLog log = fleet_case.logs[0];

  faults::FaultPlan plan;
  plan.seed = 99;
  plan.severity = 0.0;
  const faults::InjectionStats stats = eval::ApplyInstanceFaults(plan, &log);
  EXPECT_EQ(stats.total(), 0u);
  ASSERT_EQ(log.records.size(), fleet_case.logs[0].records.size());
  for (size_t i = 0; i < log.records.size(); ++i) {
    EXPECT_EQ(log.records[i].arrival_ms,
              fleet_case.logs[0].records[i].arrival_ms);
    EXPECT_EQ(log.records[i].sql_id, fleet_case.logs[0].records[i].sql_id);
    EXPECT_EQ(log.records[i].response_ms,
              fleet_case.logs[0].records[i].response_ms);
  }
  ASSERT_EQ(log.samples.size(), fleet_case.logs[0].samples.size());
  for (size_t i = 0; i < log.samples.size(); ++i) {
    EXPECT_EQ(log.samples[i].active_session,
              fleet_case.logs[0].samples[i].active_session);
    EXPECT_EQ(log.samples[i].cpu_usage,
              fleet_case.logs[0].samples[i].cpu_usage);
  }
}

TEST(FleetChaosTest, FaultsDoNotContaminateCleanCoTenants) {
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(ChaosCaseOptions());
  const FleetReplayOptions options = ChaosReplayOptions();

  // Mixed-severity fleet: perturb every instance by its own plan.
  std::vector<online::ReplayLog> faulted = fleet_case.logs;
  size_t perturbed_streams = 0;
  for (size_t i = 0; i < faulted.size(); ++i) {
    faults::FaultPlan plan;
    plan.seed = 500 + i;
    plan.severity = SeverityFor(static_cast<uint32_t>(i));
    const faults::InjectionStats stats =
        eval::ApplyInstanceFaults(plan, &faulted[i]);
    if (plan.severity == 0.0) {
      EXPECT_EQ(stats.total(), 0u) << "severity-0 instance " << i;
    } else if (stats.total() > 0) {
      ++perturbed_streams;
    }
  }
  ASSERT_GT(perturbed_streams, 0u) << "chaos run is vacuous";

  const FleetResult clean = RunFleetReplay(
      fleet_case.specs, fleet_case.logs, fleet_case.catalog, options);
  const FleetResult chaotic =
      RunFleetReplay(fleet_case.specs, faulted, fleet_case.catalog, options);
  ASSERT_GT(clean.stats.triggers_accepted, 0u);

  for (const auto& spec : fleet_case.specs) {
    if (SeverityFor(spec.instance_id) != 0.0) continue;
    EXPECT_EQ(chaotic.InstanceFingerprint(spec.instance_id),
              clean.InstanceFingerprint(spec.instance_id))
        << "faulted co-tenants contaminated clean instance "
        << spec.instance_id;
  }
}

TEST(FleetChaosTest, CleanInstanceMatchesSoloReplayBitForBit) {
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(ChaosCaseOptions());
  const FleetReplayOptions options = ChaosReplayOptions();

  std::vector<online::ReplayLog> faulted = fleet_case.logs;
  for (size_t i = 0; i < faulted.size(); ++i) {
    faults::FaultPlan plan;
    plan.seed = 500 + i;
    plan.severity = SeverityFor(static_cast<uint32_t>(i));
    eval::ApplyInstanceFaults(plan, &faulted[i]);
  }
  const FleetResult fleet_result =
      RunFleetReplay(fleet_case.specs, faulted, fleet_case.catalog, options);

  online::ReplayOptions solo;
  solo.service.ingestor = options.fleet.ingestor;
  solo.service.detector = options.fleet.detector;
  solo.service.scheduler = options.fleet.scheduler;
  solo.service.scheduler.zero_timings = true;

  size_t compared = 0;
  size_t with_outcomes = 0;
  for (const auto& spec : fleet_case.specs) {
    if (SeverityFor(spec.instance_id) != 0.0) continue;
    const online::ReplayResult solo_result =
        online::RunReplay(fleet_case.logs[spec.instance_id],
                          fleet_case.catalog, solo);
    EXPECT_EQ(fleet_result.InstanceFingerprint(spec.instance_id),
              solo_result.Fingerprint())
        << "fleet deployment changed instance " << spec.instance_id;
    ++compared;
    if (!solo_result.outcomes.empty()) ++with_outcomes;
  }
  ASSERT_GT(compared, 0u);
  // At least one clean instance must carry a real incident, or the
  // bit-equality above only compared empty digests.
  EXPECT_GT(with_outcomes, 0u) << "solo-vs-fleet comparison is vacuous";
}

/// A fleet of one equals a single instance, over a seeded sweep: every
/// SynADAC category at two seeds, replayed through RunFleetReplay with one
/// spec and through RunReplay, at 1 and 4 ingest workers/threads. This is
/// the oracle that the two deployments share one replay harness.
TEST(FleetChaosTest, FleetOfOneMatchesSoloReplayOverSeededSweep) {
  FleetReplayOptions fleet = ChaosReplayOptions();
  // Screen plus forecasters, so the drift-shaped categories fire too.
  fleet.fleet.detector.forecasters = detect::DefaultEnsembleForecasters();
  online::ReplayOptions solo;
  solo.service.ingestor = fleet.fleet.ingestor;
  solo.service.detector = fleet.fleet.detector;
  solo.service.scheduler = fleet.fleet.scheduler;

  size_t cases = 0;
  size_t with_outcomes = 0;
  for (const workload::AnomalyType type : workload::AllAnomalyTypes()) {
    for (const uint64_t seed : {11u, 12u}) {
      eval::CaseGenOptions gen;
      gen.type = type;
      gen.seed = seed;
      gen.scenario.num_clusters = 3;
      gen.scenario.min_templates_per_cluster = 5;
      gen.scenario.max_templates_per_cluster = 10;
      gen.pre_anomaly_sec = 300;
      gen.anomaly_duration_sec = 150;
      gen.post_anomaly_sec = 40;
      const eval::AnomalyCaseData data = eval::GenerateCase(gen);
      const std::vector<online::ReplayLog> logs = {
          eval::RecordCaseReplay(data)};
      const std::vector<FleetInstanceSpec> specs = {
          FleetInstanceSpec{.instance_id = 0, .host_id = 0}};
      bool any_outcome = false;
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(workload::AnomalyTypeName(type)) +
                     " seed=" + std::to_string(seed) +
                     " threads=" + std::to_string(threads));
        fleet.num_ingest_workers = threads;
        solo.num_ingest_threads = threads;
        const FleetResult fleet_result =
            RunFleetReplay(specs, logs, data.logs, fleet);
        const online::ReplayResult solo_result =
            online::RunReplay(logs[0], data.logs, solo);
        EXPECT_EQ(fleet_result.InstanceFingerprint(0),
                  solo_result.Fingerprint());
        any_outcome = any_outcome || !solo_result.outcomes.empty();
      }
      ++cases;
      if (any_outcome) ++with_outcomes;
    }
  }
  ASSERT_GE(cases, 20u);
  RecordProperty("cases_with_outcomes", static_cast<int>(with_outcomes));
  // Not vacuous: most cases must carry a diagnosis, not compare two empty
  // digests.
  EXPECT_GE(2 * with_outcomes, cases)
      << with_outcomes << " of " << cases << " cases produced an outcome";
}

}  // namespace
}  // namespace pinsql::fleet
