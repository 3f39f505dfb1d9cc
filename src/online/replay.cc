#include "online/replay.h"

#include <algorithm>
#include <barrier>
#include <limits>
#include <thread>

#include "util/strings.h"

namespace pinsql::online {

void AppendOutcomeFingerprint(const DiagnosisOutcome& outcome,
                              std::string* out) {
  *out += "trigger:";
  *out += std::to_string(outcome.trigger.instance_id);
  *out += ',';
  *out += std::to_string(outcome.trigger.onset_sec);
  *out += ',';
  *out += std::to_string(outcome.trigger.trigger_sec);
  *out += ',';
  *out += StrFormat("%.17g", outcome.trigger.severity);
  *out += ',';
  *out += StrFormat("%.17g", outcome.trigger.pettitt_p);
  *out += ',';
  *out += outcome.trigger.source;
  *out += '\n';
  *out += outcome.ok ? "ok\n" : ("error:" + outcome.error + "\n");
  if (outcome.ok) {
    *out += outcome.report.ToJson().Dump();
    *out += '\n';
  }
  *out += "repairs:";
  *out += std::to_string(outcome.repairs_applied);
  *out += ",ttr:";
  *out += StrFormat("%.17g", outcome.ttr_sec);
  *out += '\n';
}

std::string InstanceFingerprint(
    const std::vector<int64_t>& detection_latencies_sec,
    const std::vector<DiagnosisOutcome>& outcomes) {
  std::string out;
  out += "latencies:";
  for (int64_t latency : detection_latencies_sec) {
    out += std::to_string(latency);
    out += ',';
  }
  out += '\n';
  for (const DiagnosisOutcome& outcome : outcomes) {
    AppendOutcomeFingerprint(outcome, &out);
  }
  return out;
}

std::string ReplayResult::Fingerprint() const {
  return InstanceFingerprint(detection_latencies_sec, outcomes);
}

ReplayPlan BuildReplayPlan(const ReplayLog& log) {
  ReplayPlan plan;
  if (log.samples.empty()) return plan;

  const int64_t first_sec = log.samples.front().sec;
  const int64_t last_sec = log.samples.back().sec;
  plan.timeline.reserve(static_cast<size_t>(last_sec - first_sec + 1));
  const double gap = std::numeric_limits<double>::quiet_NaN();
  size_t k = 0;
  for (int64_t sec = first_sec; sec <= last_sec; ++sec) {
    while (k < log.samples.size() && log.samples[k].sec < sec) ++k;
    if (k < log.samples.size() && log.samples[k].sec == sec) {
      plan.timeline.push_back(log.samples[k]);
    } else {
      plan.timeline.push_back(
          PerfSample{.sec = sec, .active_session = gap, .cpu_usage = gap,
                     .iops_usage = gap, .row_lock_waits = gap,
                     .mdl_waits = gap});
    }
  }

  plan.records = log.records;
  std::stable_sort(plan.records.begin(), plan.records.end(),
                   [](const QueryLogRecord& a, const QueryLogRecord& b) {
                     return a.arrival_ms < b.arrival_ms;
                   });
  plan.ranges.resize(plan.timeline.size());
  size_t cursor = 0;
  for (size_t i = 0; i < plan.timeline.size(); ++i) {
    const size_t begin = cursor;
    const int64_t end_ms = (plan.timeline[i].sec + 1) * 1000;
    while (cursor < plan.records.size() &&
           plan.records[cursor].arrival_ms < end_ms) {
      ++cursor;
    }
    if (i + 1 == plan.timeline.size()) cursor = plan.records.size();
    plan.ranges[i] = {begin, cursor};
  }
  return plan;
}

void RunLockstep(int num_workers, int64_t first_sec, int64_t last_sec,
                 const std::function<void(int worker, int64_t sec)>& push,
                 const std::function<void(int64_t sec)>& advance) {
  num_workers = std::max(num_workers, 1);
  std::barrier sync(num_workers + 1);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_workers));
  for (int worker = 0; worker < num_workers; ++worker) {
    workers.emplace_back([&, worker]() {
      for (int64_t sec = first_sec; sec <= last_sec; ++sec) {
        push(worker, sec);
        sync.arrive_and_wait();
        sync.arrive_and_wait();
      }
    });
  }
  for (int64_t sec = first_sec; sec <= last_sec; ++sec) {
    sync.arrive_and_wait();
    advance(sec);
    sync.arrive_and_wait();
  }
  for (std::thread& worker : workers) worker.join();
}

ReplayResult RunReplay(const ReplayLog& log, const LogStore& catalog,
                       const ReplayOptions& options,
                       repair::RepairSupervisor* supervisor,
                       const core::HistoryProvider* history) {
  ReplayResult result;
  const ReplayPlan plan = BuildReplayPlan(log);
  if (plan.empty()) return result;

  ServiceOptions service_options = options.service;
  service_options.scheduler.zero_timings = true;
  OnlineService service(service_options, supervisor, history);
  for (const auto& [sql_id, entry] : catalog.catalog()) {
    service.archive()->RegisterTemplate(sql_id, entry);
  }

  const size_t num_threads =
      static_cast<size_t>(std::max(options.num_ingest_threads, 1));
  const size_t num_shards = std::max<size_t>(
      service_options.ingestor.num_shards, 1);

  service.Start();
  // Thread j only touches shards ≡ j (mod T), and each walks the global
  // record order, so every shard queue's order is the global order
  // restricted to that shard — invariant under T.
  RunLockstep(
      static_cast<int>(num_threads), plan.first_sec(), plan.last_sec(),
      [&](int worker, int64_t sec) {
        const auto [begin, end] =
            plan.ranges[static_cast<size_t>(sec - plan.first_sec())];
        for (size_t k = begin; k < end; ++k) {
          const size_t shard = plan.records[k].sql_id % num_shards;
          if (shard % num_threads == static_cast<size_t>(worker)) {
            service.IngestRecord(plan.records[k]);
          }
        }
      },
      [&](int64_t sec) {
        service.IngestMetrics(
            plan.timeline[static_cast<size_t>(sec - plan.first_sec())]);
        service.Advance();
      });
  service.Stop();

  result.outcomes = service.outcomes();
  result.detection_latencies_sec = service.detector().latencies_sec();
  result.stats = service.stats();
  return result;
}

}  // namespace pinsql::online
