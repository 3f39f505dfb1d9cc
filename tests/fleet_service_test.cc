/// Fleet-service suite: byte-identical fleet fingerprints across ingest
/// shard counts, diagnoser pool sizes, advance workers and repeat runs;
/// storm triage shape (bounded concurrency, zero confirmed-trigger loss);
/// noisy-neighbor attribution; graceful drain with in-flight diagnoses;
/// journal recovery against an uninterrupted run; archive retention.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/fleet_cases.h"
#include "fleet/fleet_replay.h"
#include "fleet/fleet_service.h"
#include "store/env.h"
#include "util/rng.h"

namespace pinsql::fleet {
namespace {

eval::FleetCaseOptions SmallCaseOptions() {
  eval::FleetCaseOptions options;
  options.num_instances = 12;
  options.instances_per_host = 4;
  options.seed = 21;
  options.duration_sec = 300;
  options.anomaly_fraction = 0.35;
  options.inject_noisy_host = true;
  return options;
}

FleetReplayOptions BaseReplayOptions() {
  FleetReplayOptions options;
  options.fleet.ingestor.num_shards = 4;
  options.fleet.ingestor.window_sec = 900;
  options.fleet.scheduler.cooldown_sec = 120;
  options.fleet.scheduler.top_k = 3;
  options.fleet.pool.pool_size = 4;
  options.fleet.advance_workers = 4;
  options.num_ingest_workers = 2;
  return options;
}

TEST(FleetReplayTest, FingerprintInvariantAcrossShardsPoolWorkersAndRuns) {
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(SmallCaseOptions());
  const FleetReplayOptions base = BaseReplayOptions();

  const FleetResult reference =
      RunFleetReplay(fleet_case.specs, fleet_case.logs, fleet_case.catalog,
                     base);
  const std::string fingerprint = reference.Fingerprint();
  ASSERT_FALSE(fingerprint.empty());
  // Not vacuous: the case produced real triggers and real diagnoses.
  EXPECT_GT(reference.stats.triggers_accepted, 0u);
  EXPECT_GT(reference.stats.diagnoses_ok, 0u);

  FleetReplayOptions one_shard = base;
  one_shard.fleet.ingestor.num_shards = 1;
  FleetReplayOptions serial_pool = base;
  serial_pool.fleet.pool.pool_size = 1;
  FleetReplayOptions wide_pool = base;
  wide_pool.fleet.pool.pool_size = 8;
  FleetReplayOptions serial_advance = base;
  serial_advance.fleet.advance_workers = 1;
  serial_advance.num_ingest_workers = 1;

  EXPECT_EQ(RunFleetReplay(fleet_case.specs, fleet_case.logs,
                           fleet_case.catalog, one_shard)
                .Fingerprint(),
            fingerprint)
      << "ingest shard count changed the fleet result";
  EXPECT_EQ(RunFleetReplay(fleet_case.specs, fleet_case.logs,
                           fleet_case.catalog, serial_pool)
                .Fingerprint(),
            fingerprint)
      << "diagnoser pool size changed the fleet result";
  EXPECT_EQ(RunFleetReplay(fleet_case.specs, fleet_case.logs,
                           fleet_case.catalog, wide_pool)
                .Fingerprint(),
            fingerprint)
      << "diagnoser pool size changed the fleet result";
  EXPECT_EQ(RunFleetReplay(fleet_case.specs, fleet_case.logs,
                           fleet_case.catalog, serial_advance)
                .Fingerprint(),
            fingerprint)
      << "advance/ingest worker count changed the fleet result";
  EXPECT_EQ(RunFleetReplay(fleet_case.specs, fleet_case.logs,
                           fleet_case.catalog, base)
                .Fingerprint(),
            fingerprint)
      << "repeat run diverged";
}

TEST(FleetReplayTest, DiagnosedRootCauseMatchesInjectedCulprit) {
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(SmallCaseOptions());
  const FleetResult result = RunFleetReplay(
      fleet_case.specs, fleet_case.logs, fleet_case.catalog,
      BaseReplayOptions());

  size_t checked = 0;
  size_t correct = 0;
  for (const FleetOutcome& outcome : result.outcomes) {
    if (outcome.disposition != FleetOutcome::Disposition::kDiagnosed ||
        !outcome.outcome.ok || outcome.outcome.report.hsqls.empty()) {
      continue;
    }
    const auto& truth = fleet_case.truth[outcome.outcome.trigger.instance_id];
    if (truth.kind == eval::FleetInstanceTruth::Kind::kClean) continue;
    ++checked;
    // The fleet runs with no workload history, so R-SQL verification falls
    // back and the H-SQL ranking is the discriminating signal (same as the
    // solo online deployment).
    if (outcome.outcome.report.hsqls.front().sql_id == truth.culprit_sql_id) {
      ++correct;
    }
  }
  ASSERT_GT(checked, 0u);
  // The synthetic culprit surge is unambiguous; the pipeline should nail
  // most of them (exactness is covered by the single-instance e2e suite).
  EXPECT_GE(correct * 2, checked);
}

TEST(FleetServiceTest, StormCollapsesIntoBoundedTriageWithZeroLoss) {
  eval::FleetCaseOptions case_options;
  case_options.num_instances = 16;
  case_options.instances_per_host = 4;
  case_options.seed = 33;
  case_options.duration_sec = 360;
  case_options.anomaly_fraction = 0.0;
  case_options.inject_noisy_host = false;
  case_options.inject_storm = true;
  case_options.storm_fraction = 0.8;
  case_options.storm_onset_offset_sec = 200;
  case_options.storm_duration_sec = 80;
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(case_options);

  FleetReplayOptions options = BaseReplayOptions();
  options.fleet.pool.pool_size = 2;
  options.fleet.correlator.storm_min_instances = 6;
  options.fleet.correlator.storm_window_sec = 20;
  options.fleet.correlator.storm_triage_k = 3;
  options.fleet.correlator.neighbor_min_cotenants = 0;  // isolate storms
  const FleetResult result = RunFleetReplay(
      fleet_case.specs, fleet_case.logs, fleet_case.catalog, options);

  ASSERT_GE(result.stats.storms_detected, 1u);
  ASSERT_FALSE(result.storms.empty());

  // Concurrency never exceeded the pool bound.
  EXPECT_LE(result.stats.pool.max_observed_concurrency,
            options.fleet.pool.pool_size);
  EXPECT_GE(result.stats.pool.max_observed_concurrency, 1u);

  // Zero confirmed-trigger loss: every accepted trigger is accounted as
  // either a full diagnosis or an explicit storm deferral.
  size_t diagnosed = 0;
  size_t deferred = 0;
  for (const FleetOutcome& outcome : result.outcomes) {
    if (outcome.disposition == FleetOutcome::Disposition::kDiagnosed) {
      ++diagnosed;
    } else {
      ++deferred;
      EXPECT_NE(outcome.storm_batch, 0u);
      EXPECT_FALSE(outcome.outcome.ok);
    }
  }
  EXPECT_EQ(diagnosed + deferred, result.stats.triggers_accepted);
  EXPECT_EQ(deferred, result.stats.storm_deferred);
  EXPECT_GT(deferred, 0u) << "storm did not collapse anything";

  for (const StormBatch& storm : result.storms) {
    EXPECT_GE(storm.closed_sec, storm.opened_sec);
    EXPECT_LE(storm.triaged.size(), options.fleet.correlator.storm_triage_k);
    EXPECT_GE(storm.members.size(), storm.triaged.size());
    // Triaged members really ran: each has a diagnosed outcome tagged with
    // the batch id.
    for (uint32_t instance_id : storm.triaged) {
      const bool found = std::any_of(
          result.outcomes.begin(), result.outcomes.end(),
          [&](const FleetOutcome& outcome) {
            return outcome.disposition ==
                       FleetOutcome::Disposition::kDiagnosed &&
                   outcome.storm_batch == storm.id &&
                   outcome.outcome.trigger.instance_id == instance_id;
          });
      EXPECT_TRUE(found) << "triaged instance " << instance_id
                         << " of batch " << storm.id << " never diagnosed";
    }
  }
}

TEST(FleetServiceTest, NoisyNeighborAttributionFindsDominantTenant) {
  eval::FleetCaseOptions case_options = SmallCaseOptions();
  case_options.anomaly_fraction = 0.1;
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(case_options);

  FleetReplayOptions options = BaseReplayOptions();
  options.fleet.correlator.storm_min_instances = 100;  // isolate neighbors
  options.fleet.correlator.neighbor_min_cotenants = 3;
  options.fleet.correlator.neighbor_window_sec = 120;
  const FleetResult result = RunFleetReplay(
      fleet_case.specs, fleet_case.logs, fleet_case.catalog, options);

  const auto verdict = std::find_if(
      result.neighbors.begin(), result.neighbors.end(),
      [&](const NoisyNeighborVerdict& v) {
        return v.host_id == fleet_case.noisy_host_id;
      });
  ASSERT_NE(verdict, result.neighbors.end())
      << "injected noisy host never flagged";
  EXPECT_EQ(verdict->dominant_instance, fleet_case.noisy_dominant_instance);
  EXPECT_GE(verdict->cotenants.size(), 3u);
  for (uint32_t instance_id : verdict->cotenants) {
    EXPECT_EQ(fleet_case.truth[instance_id].host_id,
              fleet_case.noisy_host_id)
        << "verdict crossed hosts";
  }
}

TEST(FleetServiceTest, GracefulDrainRunsInFlightDiagnoses) {
  const std::vector<FleetInstanceSpec> specs = {{1, 0}, {2, 0}};
  FleetOptions options;
  options.scheduler.diagnose_delay_sec = 60;
  options.scheduler.cooldown_sec = 300;
  options.pool.pool_size = 2;
  options.advance_workers = 2;
  FleetService service(specs, options);
  TemplateCatalogEntry entry;
  entry.template_text = "SELECT c FROM t0 WHERE k = ?";
  entry.kind = sqltpl::StatementKind::kSelect;
  entry.tables = {"t0"};
  service.RegisterTemplateFleetWide(1001, entry);
  service.Start();

  // 100 s of calm, then a hard step: the trigger confirms a few seconds
  // in, but its diagnosis is due ~60 s later — past the stream's end.
  for (int64_t sec = 0; sec < 140; ++sec) {
    for (uint32_t instance_id = 1; instance_id <= 2; ++instance_id) {
      const int64_t records = sec >= 100 ? 20 : 2;
      for (int64_t k = 0; k < records; ++k) {
        QueryLogRecord record;
        record.arrival_ms = sec * 1000 + k;
        record.sql_id = 1001;
        record.response_ms = sec >= 100 ? 90.0 : 4.0;
        record.examined_rows = sec >= 100 ? 30000 : 40;
        service.IngestRecord(instance_id, record);
      }
      online::PerfSample sample;
      sample.sec = sec;
      sample.active_session = sec >= 100 ? 45.0 : 5.0;
      sample.cpu_usage = 20.0;
      service.IngestMetrics(instance_id, sample);
    }
    service.AdvanceTo(sec);
  }

  const FleetStats before = service.stats();
  ASSERT_EQ(before.triggers_accepted, 2u) << "one trigger per instance";
  EXPECT_TRUE(service.outcomes().empty()) << "diagnoses were not yet due";
  EXPECT_EQ(before.pool.completed, 0u);

  service.Stop();
  EXPECT_FALSE(service.running());
  const FleetStats after = service.stats();
  ASSERT_EQ(service.outcomes().size(), 2u);
  std::set<uint32_t> seen;
  for (const FleetOutcome& outcome : service.outcomes()) {
    EXPECT_EQ(outcome.disposition, FleetOutcome::Disposition::kDiagnosed);
    EXPECT_TRUE(outcome.outcome.ok) << outcome.outcome.error;
    seen.insert(outcome.outcome.trigger.instance_id);
  }
  EXPECT_EQ(seen, (std::set<uint32_t>{1, 2}));
  EXPECT_EQ(after.diagnoses_ok, 2u);
  EXPECT_LE(after.pool.max_observed_concurrency, options.pool.pool_size);

  service.Stop();  // idempotent
  EXPECT_EQ(service.outcomes().size(), 2u);
}

/// One second of a two-instance stream: instance 2 steps into an incident
/// at second 100, instance 1 stays calm.
void FeedSecond(FleetService* service, uint32_t instance_id, int64_t sec) {
  const bool incident = instance_id == 2 && sec >= 100;
  for (int64_t k = 0; k < (incident ? 20 : 2); ++k) {
    QueryLogRecord record;
    record.arrival_ms = sec * 1000 + k;
    record.sql_id = 1001;
    record.response_ms = incident ? 90.0 : 4.0;
    record.examined_rows = incident ? 30000 : 40;
    service->IngestRecord(instance_id, record);
  }
  online::PerfSample sample;
  sample.sec = sec;
  sample.active_session = incident ? 45.0 : 5.0;
  sample.cpu_usage = 20.0;
  service->IngestMetrics(instance_id, sample);
}

/// Runs the two-instance stream. With `lagging`, instance 2 stalls after
/// second 59 while instance 1 advances the fleet to second 179; then its
/// seconds 60-179 arrive in chunks, each followed by a repeated,
/// non-advancing AdvanceTo(179).
FleetResult RunLaggingPair(bool lagging) {
  FleetOptions options;
  options.scheduler.diagnose_delay_sec = 30;
  options.scheduler.cooldown_sec = 300;
  options.scheduler.zero_timings = true;  // wall times stay out of reports
  FleetService service({{1, 0}, {2, 1}}, options);
  TemplateCatalogEntry entry;
  entry.template_text = "SELECT c FROM t0 WHERE k = ?";
  entry.kind = sqltpl::StatementKind::kSelect;
  entry.tables = {"t0"};
  service.RegisterTemplateFleetWide(1001, entry);
  service.Start();
  constexpr int64_t kStall = 60, kCatchUp = 180;
  for (int64_t sec = 0; sec < 240; ++sec) {
    if (lagging && sec == kCatchUp) {
      for (int64_t chunk = kStall; chunk < kCatchUp; chunk += 20) {
        for (int64_t s = chunk; s < chunk + 20; ++s) FeedSecond(&service, 2, s);
        service.AdvanceTo(kCatchUp - 1);
      }
    }
    FeedSecond(&service, 1, sec);
    if (!lagging || sec < kStall || sec >= kCatchUp) {
      FeedSecond(&service, 2, sec);
    }
    service.AdvanceTo(sec);
  }
  service.Stop();
  FleetResult result;
  result.outcomes = service.outcomes();
  result.storms = service.storms();
  result.neighbors = service.neighbor_verdicts();
  for (uint32_t id : {1u, 2u}) {
    result.latencies[id] = service.detection_latencies(id);
  }
  result.stats = service.stats();
  return result;
}

/// The outcome-side state of a stopped service, shaped for Fingerprint().
FleetResult CollectResult(FleetService* service,
                          const std::vector<uint32_t>& ids) {
  FleetResult result;
  result.outcomes = service->outcomes();
  result.storms = service->storms();
  result.neighbors = service->neighbor_verdicts();
  for (const uint32_t id : ids) {
    result.latencies[id] = service->detection_latencies(id);
  }
  result.stats = service->stats();
  return result;
}

FleetOptions PairOptions() {
  FleetOptions options;
  options.scheduler.diagnose_delay_sec = 30;
  options.scheduler.cooldown_sec = 300;
  options.scheduler.zero_timings = true;  // wall times stay out of reports
  return options;
}

void RegisterPairCatalog(FleetService* service) {
  TemplateCatalogEntry entry;
  entry.template_text = "SELECT c FROM t0 WHERE k = ?";
  entry.kind = sqltpl::StatementKind::kSelect;
  entry.tables = {"t0"};
  service->RegisterTemplateFleetWide(1001, entry);
}

/// Instance 2 streams seconds 0-179 and then goes silent; instance 1
/// streams 0-239. With `ahead`, instance 2's seconds 60-179 all arrive
/// while the fleet clock stands at 59, so once they are folded it has
/// nothing staged: only its unstepped detector seconds keep it dirty as
/// the fleet clock catches up.
FleetResult RunAheadPair(bool ahead) {
  FleetService service({{1, 0}, {2, 1}}, PairOptions());
  RegisterPairCatalog(&service);
  service.Start();
  for (int64_t sec = 0; sec < 240; ++sec) {
    if (ahead && sec == 60) {
      for (int64_t s = 60; s < 180; ++s) FeedSecond(&service, 2, s);
      service.AdvanceTo(59);  // folds only: the fleet clock stays at 59
    }
    FeedSecond(&service, 1, sec);
    if (sec < (ahead ? 60 : 180)) FeedSecond(&service, 2, sec);
    service.AdvanceTo(sec);
  }
  service.Stop();
  return CollectResult(&service, {1, 2});
}

TEST(FleetServiceTest, SilentInstanceAheadOfTheFleetClockIsStillStepped) {
  const FleetResult lockstep = RunAheadPair(/*ahead=*/false);
  ASSERT_EQ(lockstep.stats.triggers_accepted, 1u);
  ASSERT_EQ(lockstep.outcomes.size(), 1u);
  EXPECT_EQ(lockstep.outcomes[0].outcome.trigger.instance_id, 2u);

  const FleetResult ahead = RunAheadPair(/*ahead=*/true);
  EXPECT_EQ(ahead.stats.triggers_accepted, 1u);
  EXPECT_EQ(ahead.stats.samples_observed, lockstep.stats.samples_observed);
  EXPECT_EQ(ahead.latencies.at(2), lockstep.latencies.at(2));
  EXPECT_EQ(ahead.Fingerprint(), lockstep.Fingerprint());
}

/// Six instances, instance 2 with an incident; each round feeds only a
/// seeded subset of them (the others catch up in a later round, up to 9 s
/// behind) and then advances the fleet to the round's second.
FleetResult RunPartialRounds(int advance_workers) {
  FleetOptions options = PairOptions();
  options.advance_workers = advance_workers;
  const std::vector<uint32_t> ids = {1, 2, 3, 4, 5, 6};
  std::vector<FleetInstanceSpec> specs;
  for (const uint32_t id : ids) specs.push_back({id, id / 2});
  FleetService service(specs, options);
  RegisterPairCatalog(&service);
  service.Start();
  std::vector<int64_t> next(ids.size(), 0);
  Rng rng(17);
  constexpr int64_t kSeconds = 240;
  for (int64_t round = 0; round < kSeconds; ++round) {
    for (size_t i = 0; i < ids.size(); ++i) {
      const bool feed = round + 1 == kSeconds || round - next[i] >= 9 ||
                        rng.UniformInt(0, 2) == 0;
      if (!feed) continue;
      for (; next[i] <= round; ++next[i]) {
        FeedSecond(&service, ids[i], next[i]);
      }
    }
    service.AdvanceTo(round);
  }
  service.Stop();
  return CollectResult(&service, ids);
}

TEST(FleetServiceTest, PartialRoundsFingerprintInvariantAcrossAdvanceWorkers) {
  const FleetResult serial = RunPartialRounds(1);
  EXPECT_GE(serial.stats.triggers_accepted, 1u);
  EXPECT_EQ(serial.stats.ingest.records_dropped_late, 0u);
  const std::string fingerprint = serial.Fingerprint();
  EXPECT_EQ(RunPartialRounds(2).Fingerprint(), fingerprint);
  EXPECT_EQ(RunPartialRounds(4).Fingerprint(), fingerprint);
}

TEST(FleetServiceTest, RepeatedAdvanceKeepsALaggingInstancesTrigger) {
  const FleetResult monotone = RunLaggingPair(/*lagging=*/false);
  ASSERT_EQ(monotone.stats.triggers_accepted, 1u);
  ASSERT_EQ(monotone.outcomes.size(), 1u);
  EXPECT_EQ(monotone.outcomes[0].outcome.trigger.instance_id, 2u);

  // Instance 2's incident seconds arrive while the fleet clock stands at
  // 179. The repeated AdvanceTo(179) calls only fold; the next advance
  // steps its detector and merges the trigger.
  const FleetResult lagging = RunLaggingPair(/*lagging=*/true);
  EXPECT_EQ(lagging.stats.triggers_accepted, 1u);
  EXPECT_EQ(lagging.stats.ingest.records_dropped_late, 0u);
  EXPECT_EQ(lagging.Fingerprint(), monotone.Fingerprint());
}

/// Env whose file opens always fail: every instance's journal writer fails
/// to open and the fleet degrades to in-memory operation.
class OpenFailEnv : public store::Env {
 public:
  StatusOr<std::unique_ptr<store::WritableFile>> NewWritableFile(
      const std::string& path) override {
    return Status::Internal("injected open failure: " + path);
  }
  Status ReadFile(const std::string& path, std::string* out) override {
    return store::PosixEnv()->ReadFile(path, out);
  }
  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override {
    return store::PosixEnv()->ListDir(dir);
  }
  Status CreateDirs(const std::string& dir) override {
    return store::PosixEnv()->CreateDirs(dir);
  }
  Status DeleteFile(const std::string& path) override {
    return store::PosixEnv()->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return store::PosixEnv()->RenameFile(from, to);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return store::PosixEnv()->TruncateFile(path, size);
  }
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    return store::PosixEnv()->FileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return store::PosixEnv()->FileExists(path);
  }
  Status SyncDir(const std::string& dir) override {
    return store::PosixEnv()->SyncDir(dir);
  }
};

TEST(FleetServiceTest, DegradedJournalDoesNotAccumulatePendingRecords) {
  std::string data_dir = ::testing::TempDir() + "pinsql_fleet_XXXXXX";
  ASSERT_NE(mkdtemp(data_dir.data()), nullptr);
  OpenFailEnv env;
  FleetOptions options;
  options.data_dir = data_dir;
  options.env = &env;
  FleetService service({{7, 0}}, options);
  service.Start();

  // The instance runs in-memory: ingest keeps streaming, and nothing may
  // buffer for a journal that has no writer to drain it.
  for (int64_t sec = 0; sec < 60; ++sec) {
    for (int64_t k = 0; k < 5; ++k) {
      QueryLogRecord record;
      record.arrival_ms = sec * 1000 + k;
      record.sql_id = 1001;
      record.response_ms = 4.0;
      record.examined_rows = 40;
      EXPECT_TRUE(service.IngestRecord(7, record));
    }
    online::PerfSample sample;
    sample.sec = sec;
    sample.active_session = 5.0;
    EXPECT_TRUE(service.IngestMetrics(7, sample));
    service.AdvanceTo(sec);
  }
  const FleetStats stats = service.stats();
  EXPECT_EQ(stats.pending_journal_records, 0u);
  EXPECT_GT(stats.ingest.records_enqueued, 0u);
  service.Stop();
}

/// Feeds seconds [from_sec, to_sec] of a fleet case the way RunFleetReplay
/// does (every instance's records, then its sample; then the fleet advance),
/// with a single producer.
void FeedFleetCase(FleetService* service, const eval::FleetCase& fleet_case,
                   const std::vector<online::ReplayPlan>& plans,
                   int64_t from_sec, int64_t to_sec) {
  for (int64_t sec = from_sec; sec <= to_sec; ++sec) {
    for (size_t i = 0; i < plans.size(); ++i) {
      const online::ReplayPlan& plan = plans[i];
      if (plan.empty() || sec < plan.first_sec() || sec > plan.last_sec()) {
        continue;
      }
      const size_t idx = static_cast<size_t>(sec - plan.first_sec());
      const auto [begin, end] = plan.ranges[idx];
      service->IngestRecords(
          fleet_case.specs[i].instance_id,
          std::span<const QueryLogRecord>(plan.records)
              .subspan(begin, end - begin));
      service->IngestMetrics(fleet_case.specs[i].instance_id,
                             plan.timeline[idx]);
    }
    service->AdvanceTo(sec);
  }
}

TEST(FleetServiceTest, JournalRecoveryMatchesUninterruptedRun) {
  const eval::FleetCase fleet_case = eval::GenerateFleetCase(SmallCaseOptions());
  std::vector<online::ReplayPlan> plans;
  int64_t first_sec = std::numeric_limits<int64_t>::max();
  int64_t last_sec = std::numeric_limits<int64_t>::min();
  for (const online::ReplayLog& log : fleet_case.logs) {
    plans.push_back(online::BuildReplayPlan(log));
    first_sec = std::min(first_sec, plans.back().first_sec());
    last_sec = std::max(last_sec, plans.back().last_sec());
  }
  std::vector<uint32_t> ids;
  for (const FleetInstanceSpec& spec : fleet_case.specs) {
    ids.push_back(spec.instance_id);
  }
  FleetOptions options = BaseReplayOptions().fleet;
  options.scheduler.zero_timings = true;
  const auto register_catalog = [&](FleetService* service) {
    for (const auto& [sql_id, entry] : fleet_case.catalog.catalog()) {
      service->RegisterTemplateFleetWide(sql_id, entry);
    }
  };

  // The oracle: one uninterrupted in-memory run.
  FleetService reference(fleet_case.specs, options);
  register_catalog(&reference);
  reference.Start();
  FeedFleetCase(&reference, fleet_case, plans, first_sec, last_sec);
  reference.Stop();
  const FleetResult want = CollectResult(&reference, ids);
  ASSERT_GT(want.stats.triggers_accepted, 0u);

  // A durable run whose data dir is copied mid-stream, right after an
  // advance, while the service still runs: the copy is what a kill -9 at
  // that instant leaves on disk. Every frame is written through before
  // the append returns, so the copy holds every accepted record and sample.
  std::string root = ::testing::TempDir() + "pinsql_fleet_XXXXXX";
  ASSERT_NE(mkdtemp(root.data()), nullptr);
  const std::string live_dir = root + "/live";
  const std::string crash_dir = root + "/crash";
  const int64_t split_sec = first_sec + (last_sec - first_sec) / 2;
  FleetOptions durable = options;
  durable.wal.fsync = store::FsyncPolicy::kEveryBatch;
  {
    durable.data_dir = live_dir;
    FleetService live(fleet_case.specs, durable);
    register_catalog(&live);
    live.Start();
    FeedFleetCase(&live, fleet_case, plans, first_sec, split_sec);
    ASSERT_EQ(live.stats().pending_journal_records, 0u);
    std::filesystem::copy(live_dir, crash_dir,
                          std::filesystem::copy_options::recursive);
  }

  durable.data_dir = crash_dir;
  FleetService recovered(fleet_case.specs, durable);
  recovered.Start();
  const FleetRecoveryStats& recovery = recovered.recovery();
  EXPECT_TRUE(recovery.attempted);
  EXPECT_EQ(recovery.instances_with_wal, fleet_case.specs.size());
  EXPECT_GT(recovery.samples, 0u);
  EXPECT_EQ(recovery.frames_corrupt, 0u);
  EXPECT_EQ(recovery.frames_malformed, 0u);
  // The catalog came back from the journal, not from a registration.
  ASSERT_NE(recovered.archive(ids.front()), nullptr);
  EXPECT_EQ(recovered.archive(ids.front())->catalog().size(),
            fleet_case.catalog.catalog().size());
  FeedFleetCase(&recovered, fleet_case, plans, split_sec + 1, last_sec);
  recovered.Stop();
  const FleetResult got = CollectResult(&recovered, ids);

  EXPECT_EQ(got.Fingerprint(), want.Fingerprint());
  for (const uint32_t id : ids) {
    EXPECT_EQ(got.InstanceFingerprint(id), want.InstanceFingerprint(id))
        << "instance " << id;
  }
  EXPECT_EQ(got.stats.triggers_accepted, want.stats.triggers_accepted);
  EXPECT_EQ(got.stats.samples_observed, want.stats.samples_observed);
  EXPECT_EQ(got.stats.ingest.records_folded, want.stats.ingest.records_folded);
  EXPECT_EQ(got.stats.pending_journal_records, 0u);
  std::filesystem::remove_all(root);
}

TEST(FleetServiceTest, ArchiveRetentionBoundsALongStream) {
  // Two instances over four virtual days: a dense first 400 s (instance 2
  // steps into an incident at second 300), then three records and one
  // sample every ten minutes. Instance 2's diagnosis is due after the
  // stream ends, so it is still queued when the archives are checked.
  constexpr int64_t kDays = 4;
  constexpr int64_t kEndSec = kDays * 24 * 3600;
  FleetOptions options = PairOptions();
  options.scheduler.diagnose_delay_sec = kEndSec;
  FleetService service({{1, 0}, {2, 1}}, options);
  RegisterPairCatalog(&service);
  service.Start();
  std::map<uint32_t, std::vector<int64_t>> arrivals;  // per instance, ms
  const auto feed = [&](uint32_t id, int64_t sec, int64_t records,
                        double sessions) {
    for (int64_t k = 0; k < records; ++k) {
      QueryLogRecord record;
      record.arrival_ms = sec * 1000 + k;
      record.sql_id = 1001;
      record.response_ms = sessions > 10.0 ? 90.0 : 4.0;
      record.examined_rows = 40;
      ASSERT_TRUE(service.IngestRecord(id, record));
      arrivals[id].push_back(record.arrival_ms);
    }
    online::PerfSample sample;
    sample.sec = sec;
    sample.active_session = sessions;
    ASSERT_TRUE(service.IngestMetrics(id, sample));
  };
  for (int64_t sec = 0; sec < 400; ++sec) {
    feed(1, sec, 2, 5.0);
    feed(2, sec, sec >= 300 ? 20 : 2, sec >= 300 ? 45.0 : 5.0);
    service.AdvanceTo(sec);
  }
  for (int64_t sec = 600; sec <= kEndSec; sec += 600) {
    feed(1, sec, 3, 5.0);
    feed(2, sec, 3, 5.0);
    service.AdvanceTo(sec);
  }
  const FleetStats stats = service.stats();
  ASSERT_EQ(stats.triggers_accepted, 1u);
  ASSERT_EQ(stats.pool.enqueued - stats.pool.completed, 1u)
      << "instance 2's diagnosis must still be queued";

  // The last sweep ran at kEndSec. Instance 1 keeps exactly the records of
  // the last LogStore::kRetentionMs: its ingestor window (30 min) is far
  // younger, and nothing is queued for it.
  const int64_t cutoff_ms = kEndSec * 1000 - LogStore::kRetentionMs;
  const auto count_from = [&](uint32_t id, int64_t from_ms) {
    return static_cast<size_t>(
        std::count_if(arrivals[id].begin(), arrivals[id].end(),
                      [from_ms](int64_t ms) { return ms >= from_ms; }));
  };
  const LogStore& calm = *service.archive(1);
  ASSERT_LT(count_from(1, cutoff_ms), arrivals[1].size());
  EXPECT_EQ(calm.size(), count_from(1, cutoff_ms));
  EXPECT_GE(calm.SortedRecords().front().arrival_ms, cutoff_ms);

  // Instance 2 also keeps what its queued diagnosis will read: the window
  // from the trigger's onset minus delta_s, which starts before its first
  // record (checked once the drain has run the diagnosis).
  EXPECT_EQ(service.archive(2)->size(), arrivals[2].size());
  service.Stop();
  ASSERT_EQ(service.outcomes().size(), 1u);
  const online::DiagnosisOutcome& drained = service.outcomes()[0].outcome;
  EXPECT_EQ(drained.trigger.instance_id, 2u);
  EXPECT_LE(
      (drained.trigger.onset_sec - options.scheduler.diagnoser.delta_s_sec) *
          1000,
      arrivals[2].front());
  EXPECT_TRUE(drained.ok) << drained.error;
}

TEST(FleetServiceTest, UnknownInstanceIngestIsRejected) {
  FleetService service({{7, 0}}, FleetOptions{});
  service.Start();
  online::PerfSample sample;
  sample.sec = 1;
  EXPECT_FALSE(service.IngestMetrics(8, sample));
  EXPECT_TRUE(service.IngestMetrics(7, sample));
  EXPECT_FALSE(service.IngestRecord(8, QueryLogRecord{}));
  EXPECT_EQ(service.archive(8), nullptr);
  ASSERT_NE(service.archive(7), nullptr);
  service.Stop();
}

}  // namespace
}  // namespace pinsql::fleet
