#include "fleet/fleet_replay.h"

#include <algorithm>
#include <limits>
#include <span>

#include "util/strings.h"

namespace pinsql::fleet {

std::string FleetResult::Fingerprint() const {
  std::string out;
  for (const auto& [instance_id, instance_latencies] : latencies) {
    out += "latencies[";
    out += std::to_string(instance_id);
    out += "]:";
    for (int64_t latency : instance_latencies) {
      out += std::to_string(latency);
      out += ',';
    }
    out += '\n';
  }

  std::vector<size_t> order(outcomes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    const online::AnomalyTrigger& ta = outcomes[a].outcome.trigger;
    const online::AnomalyTrigger& tb = outcomes[b].outcome.trigger;
    if (ta.instance_id != tb.instance_id) {
      return ta.instance_id < tb.instance_id;
    }
    if (ta.onset_sec != tb.onset_sec) return ta.onset_sec < tb.onset_sec;
    return ta.trigger_sec < tb.trigger_sec;
  });
  for (size_t idx : order) {
    const FleetOutcome& fleet_outcome = outcomes[idx];
    out += "outcome:";
    out += fleet_outcome.disposition == FleetOutcome::Disposition::kDiagnosed
               ? "diagnosed"
               : "storm_deferred";
    out += ",storm=";
    out += std::to_string(fleet_outcome.storm_batch);
    out += '\n';
    online::AppendOutcomeFingerprint(fleet_outcome.outcome, &out);
  }

  for (const StormBatch& storm : storms) {
    out += "storm:";
    out += std::to_string(storm.id);
    out += ",opened=";
    out += std::to_string(storm.opened_sec);
    out += ",closed=";
    out += std::to_string(storm.closed_sec);
    out += ",triaged=";
    for (uint32_t instance_id : storm.triaged) {
      out += std::to_string(instance_id);
      out += ',';
    }
    out += "members=";
    std::vector<size_t> member_order(storm.members.size());
    for (size_t i = 0; i < member_order.size(); ++i) member_order[i] = i;
    std::sort(member_order.begin(), member_order.end(),
              [&storm](size_t a, size_t b) {
                const online::AnomalyTrigger& ta = storm.members[a].trigger;
                const online::AnomalyTrigger& tb = storm.members[b].trigger;
                if (ta.instance_id != tb.instance_id) {
                  return ta.instance_id < tb.instance_id;
                }
                if (ta.onset_sec != tb.onset_sec) {
                  return ta.onset_sec < tb.onset_sec;
                }
                return ta.trigger_sec < tb.trigger_sec;
              });
    for (size_t idx : member_order) {
      const StormMember& member = storm.members[idx];
      out += '(';
      out += std::to_string(member.trigger.instance_id);
      out += ',';
      out += std::to_string(member.trigger.onset_sec);
      out += ',';
      out += std::to_string(member.trigger.trigger_sec);
      out += ',';
      out += StrFormat("%.17g", member.trigger.severity);
      out += ')';
    }
    out += '\n';
  }

  for (const NoisyNeighborVerdict& verdict : neighbors) {
    out += "neighbor:host=";
    out += std::to_string(verdict.host_id);
    out += ",sec=";
    out += std::to_string(verdict.flagged_sec);
    out += ",dominant=";
    out += std::to_string(verdict.dominant_instance);
    out += ",onset=";
    out += std::to_string(verdict.dominant_onset_sec);
    out += ",severity=";
    out += StrFormat("%.17g", verdict.dominant_severity);
    out += ",cotenants=";
    for (uint32_t instance_id : verdict.cotenants) {
      out += std::to_string(instance_id);
      out += ',';
    }
    out += '\n';
  }
  return out;
}

std::string FleetResult::InstanceFingerprint(uint32_t instance_id) const {
  std::vector<online::DiagnosisOutcome> slice;
  for (const FleetOutcome& fleet_outcome : outcomes) {
    if (fleet_outcome.outcome.trigger.instance_id != instance_id) continue;
    // Normalize the id so the digest is byte-comparable to a solo
    // replay's (whose triggers carry instance 0).
    slice.push_back(fleet_outcome.outcome);
    slice.back().trigger.instance_id = 0;
  }
  std::sort(slice.begin(), slice.end(),
            [](const online::DiagnosisOutcome& a,
               const online::DiagnosisOutcome& b) {
              if (a.trigger.onset_sec != b.trigger.onset_sec) {
                return a.trigger.onset_sec < b.trigger.onset_sec;
              }
              return a.trigger.trigger_sec < b.trigger.trigger_sec;
            });
  const auto it = latencies.find(instance_id);
  return online::InstanceFingerprint(
      it != latencies.end() ? it->second : std::vector<int64_t>{}, slice);
}

FleetResult RunFleetReplay(const std::vector<FleetInstanceSpec>& specs,
                           const std::vector<online::ReplayLog>& logs,
                           const LogStore& catalog,
                           const FleetReplayOptions& options) {
  FleetResult result;
  const size_t n = std::min(specs.size(), logs.size());
  if (n == 0) return result;

  FleetOptions fleet_options = options.fleet;
  fleet_options.scheduler.zero_timings = true;
  std::vector<FleetInstanceSpec> fleet_specs(specs.begin(),
                                             specs.begin() + n);
  FleetService service(fleet_specs, fleet_options);
  for (const auto& [sql_id, entry] : catalog.catalog()) {
    service.RegisterTemplateFleetWide(sql_id, entry);
  }

  std::vector<online::ReplayPlan> plans;
  plans.reserve(n);
  int64_t first_sec = std::numeric_limits<int64_t>::max();
  int64_t last_sec = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < n; ++i) {
    plans.push_back(online::BuildReplayPlan(logs[i]));
    if (!plans.back().empty()) {
      first_sec = std::min(first_sec, plans.back().first_sec());
      last_sec = std::max(last_sec, plans.back().last_sec());
    }
  }
  if (first_sec > last_sec) return result;

  const size_t num_workers =
      static_cast<size_t>(std::max(options.num_ingest_workers, 1));
  service.Start();
  // The fleet clock sweeps the union of the instances' spans. Worker w
  // owns instances ≡ w (mod W) and pushes each in recorded order, so
  // per-instance ingest order is invariant under W.
  online::RunLockstep(
      static_cast<int>(num_workers), first_sec, last_sec,
      [&](int worker, int64_t sec) {
        for (size_t i = static_cast<size_t>(worker); i < n;
             i += num_workers) {
          const online::ReplayPlan& plan = plans[i];
          if (plan.empty() || sec < plan.first_sec() ||
              sec > plan.last_sec()) {
            continue;
          }
          const size_t idx = static_cast<size_t>(sec - plan.first_sec());
          const auto [begin, end] = plan.ranges[idx];
          service.IngestRecords(
              specs[i].instance_id,
              std::span<const QueryLogRecord>(plan.records).subspan(
                  begin, end - begin));
          service.IngestMetrics(specs[i].instance_id, plan.timeline[idx]);
        }
      },
      [&](int64_t sec) { service.AdvanceTo(sec); });
  service.Stop();

  result.outcomes = service.outcomes();
  result.storms = service.storms();
  result.neighbors = service.neighbor_verdicts();
  for (size_t i = 0; i < n; ++i) {
    result.latencies[specs[i].instance_id] =
        service.detection_latencies(specs[i].instance_id);
  }
  result.stats = service.stats();
  return result;
}

}  // namespace pinsql::fleet
