#include "traffic.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <utility>

#include "detect/forecast.h"
#include "eval/case_generator.h"
#include "eval/fleet_cases.h"
#include "eval/online_e2e.h"
#include "online/online_detector.h"
#include "bookkeeping.h"

namespace perfbench {

namespace detect = pinsql::detect;
namespace eval = pinsql::eval;
namespace workload = pinsql::workload;

namespace {

constexpr int64_t kFleetStartSec = 100'000;

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

// Shortest round-trip form, so the server parses back the exact double.
void AppendDouble(std::string* out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

/// The wire carries no NaN; a telemetry gap is sent as 0 and every
/// in-process reference sees the same value.
void SanitizeSamples(online::ReplayLog* log) {
  for (online::PerfSample& s : log->samples) {
    for (double* v : {&s.active_session, &s.cpu_usage, &s.iops_usage,
                      &s.row_lock_waits, &s.mdl_waits}) {
      if (!std::isfinite(*v)) *v = 0.0;
    }
  }
}

/// Circularly shifts one instance's stream inside [start, start + span) so
/// its anomaly episode lands on a planned slot; the baseline it wraps is
/// stationary noise.
online::ReplayLog Rotate(const online::ReplayLog& log, int64_t start,
                         int64_t span, int64_t shift) {
  const auto map = [&](int64_t sec) {
    return start + (((sec - start + shift) % span) + span) % span;
  };
  online::ReplayLog out = log;
  for (online::PerfSample& s : out.samples) s.sec = map(s.sec);
  std::sort(out.samples.begin(), out.samples.end(),
            [](const auto& a, const auto& b) { return a.sec < b.sec; });
  for (QueryLogRecord& r : out.records) {
    const int64_t sec = r.arrival_ms / 1000;
    r.arrival_ms = map(sec) * 1000 + (r.arrival_ms - sec * 1000);
  }
  std::stable_sort(out.records.begin(), out.records.end(),
                   [](const auto& a, const auto& b) {
                     return a.arrival_ms < b.arrival_ms;
                   });
  return out;
}

online::ReplayLog Shift(online::ReplayLog log, int64_t delta_sec) {
  for (online::PerfSample& s : log.samples) s.sec += delta_sec;
  for (QueryLogRecord& r : log.records) r.arrival_ms += delta_sec * 1000;
  return log;
}

/// Fleet traffic from eval::GenerateFleetCase: 32 instances at ~200
/// records per instance-second, a clean fleet with the noisy host, plus 20
/// single-instance incidents whose onsets are spread 6 s apart. The spacing keeps fewer than 8 distinct instances
/// inside any 30 s window, so no anomaly storm forms and every incident is
/// diagnosed individually.
void MakeFleetTraffic(uint64_t seed, Traffic* t) {
  constexpr size_t kInstances = 32;
  constexpr size_t kIndependents = 20;
  constexpr int64_t kDurationSec = 285;
  constexpr int64_t kHostOnsetOffset = 80;
  constexpr int64_t kFirstSlotOffset = 125;
  constexpr int64_t kSlotSpacing = 6;
  eval::FleetCaseOptions options;
  options.num_instances = kInstances;
  options.seed = seed;
  options.start_sec = kFleetStartSec;
  options.duration_sec = kDurationSec;
  options.baseline_qps = 200.0;
  options.anomaly_duration_sec = 45;
  options.neighbor_onset_offset_sec = kHostOnsetOffset;
  options.anomaly_fraction = 0.0;
  eval::FleetCase clean = eval::GenerateFleetCase(options);
  // Every non-host instance gets an episode here; the first kIndependents
  // of them are placed, the rest keep their clean stream.
  options.anomaly_fraction = 1.0;
  eval::FleetCase incidents = eval::GenerateFleetCase(options);

  t->specs = clean.specs;
  t->catalog = clean.catalog;
  t->logs = std::move(clean.logs);
  for (const eval::FleetInstanceTruth& truth : clean.truth) {
    if (truth.kind != eval::FleetInstanceTruth::Kind::kNeighbor) continue;
    t->incidents.push_back({truth.instance_id, truth.onset_sec, truth.end_sec,
                            {truth.culprit_sql_id}, "noisy_host"});
  }
  size_t placed = 0;
  for (const eval::FleetInstanceTruth& truth : incidents.truth) {
    if (placed == kIndependents) break;
    if (truth.kind != eval::FleetInstanceTruth::Kind::kIndependent) continue;
    const int64_t slot = kFleetStartSec + kFirstSlotOffset +
                         static_cast<int64_t>(placed) * kSlotSpacing;
    t->logs[truth.instance_id] =
        Rotate(incidents.logs[truth.instance_id], kFleetStartSec,
               kDurationSec, slot - truth.onset_sec);
    t->incidents.push_back({truth.instance_id, slot,
                            slot + (truth.end_sec - truth.onset_sec),
                            {truth.culprit_sql_id}, "independent"});
    ++placed;
  }
}

constexpr uint64_t kMaxCaseRegens = 16;

/// A generated case carries a usable incident when the workload's own
/// detector, run over the case's samples, first fires inside the injected
/// anomaly (a baseline false alarm would open a cooldown that swallows the
/// real trigger) and early enough that the diagnosis falls due before the
/// timeline ends. Other draws are generator artifacts, not detection
/// results, and are regenerated from a derived seed.
bool AdmitCase(const eval::AnomalyCaseData& data,
               const fleet::FleetOptions& fleet_options, int64_t delta,
               int64_t timeline_end) {
  online::OnlineAnomalyDetector detector(fleet_options.detector);
  for (int64_t sec = data.window_start_sec; sec < data.window_end_sec; ++sec) {
    double value = data.metrics.active_session.Covers(sec)
                       ? data.metrics.active_session.AtTime(sec)
                       : 0.0;
    if (!std::isfinite(value)) value = 0.0;
    const auto trigger = detector.Observe(sec, value);
    if (!trigger.has_value()) continue;
    const int64_t due = trigger->trigger_sec - data.window_start_sec + delta +
                        fleet_options.scheduler.diagnose_delay_sec;
    return trigger->trigger_sec >= data.injected_as &&
           trigger->trigger_sec < data.injected_ae && due + 5 < timeline_end;
  }
  return false;
}

/// Lock-heavy SynADAC cases, one distinct case per instance, each shifted
/// so onsets are staggered kStaggerSec apart. The single slow-drift case
/// starts first: its trigger comes late, and the later instances keep the
/// fleet clock running until its diagnosis is due.
void MakeLongIncidentTraffic(uint64_t seed, Traffic* t) {
  const workload::AnomalyType cycle[] = {
      workload::AnomalyType::kMdlLock, workload::AnomalyType::kRowLock,
      workload::AnomalyType::kMigrationStorm};
  constexpr size_t kInstances = 20;
  constexpr int64_t kStaggerSec = 10;
  t->specs.resize(kInstances);
  t->logs.resize(kInstances);
  t->fleet_options.scheduler.diagnose_delay_sec = 400;
  t->fleet_options.detector.forecasters = detect::DefaultEnsembleForecasters();
  // The case of instance j ends at shift + kCaseSec; the last instance's
  // case ends the timeline.
  constexpr int64_t kCaseSec = 600 + 450 + 320;
  const int64_t timeline_end =
      static_cast<int64_t>(kInstances - 1) * kStaggerSec + kCaseSec;
  for (size_t j = 0; j < kInstances; ++j) {
    eval::CaseGenOptions options;
    options.type = j == 0 ? workload::AnomalyType::kSlowDrift : cycle[(j - 1) % 3];
    options.pre_anomaly_sec = 600;
    options.anomaly_duration_sec = 450;
    options.post_anomaly_sec = 320;
    options.scenario.num_clusters = 2;
    // Narrow shape ranges keep the diagnosis cost of the 20 cases alike
    // from seed to seed.
    options.scenario.min_cluster_qps = 18.0;
    options.scenario.max_cluster_qps = 20.0;
    options.scenario.min_templates_per_cluster = 16;
    options.scenario.max_templates_per_cluster = 16;
    const int64_t delta = static_cast<int64_t>(j) * kStaggerSec;
    eval::AnomalyCaseData data;
    for (uint64_t regen = 0; regen < kMaxCaseRegens; ++regen) {
      options.seed = seed * 131 + j + regen * 7919;
      data = eval::GenerateCase(options);
      if (AdmitCase(data, t->fleet_options, delta, timeline_end)) break;
    }
    for (const auto& [sql_id, entry] : data.logs.catalog()) {
      t->catalog.RegisterTemplate(sql_id, entry);
    }
    const auto id = static_cast<uint32_t>(j);
    t->specs[j] = {id, static_cast<uint32_t>(j / 4)};
    t->logs[j] = Shift(eval::RecordCaseReplay(data), delta);
    t->incidents.push_back({id, data.injected_as + delta,
                            data.injected_ae + delta, data.rsql_truth,
                            workload::AnomalyTypeName(options.type)});
  }
  // Template ids are 64-bit fingerprints, but the ingest API carries
  // integers only up to 2^53 exactly; renumber them densely (in id order)
  // so the wire, the catalog and the ground truth agree.
  std::map<uint64_t, uint64_t> dense;
  for (const auto& [sql_id, entry] : t->catalog.catalog()) dense[sql_id] = 0;
  uint64_t next = 1;
  for (auto& [sql_id, id] : dense) id = next++;
  LogStore catalog;
  for (const auto& [sql_id, entry] : t->catalog.catalog()) {
    catalog.RegisterTemplate(dense.at(sql_id), entry);
  }
  t->catalog = std::move(catalog);
  for (online::ReplayLog& log : t->logs) {
    for (QueryLogRecord& r : log.records) r.sql_id = dense.at(r.sql_id);
  }
  for (Incident& inc : t->incidents) {
    for (uint64_t& root : inc.roots) root = dense.at(root);
  }
}

/// Splits every instance's stream into one batch per sample second, in
/// (second, instance) order, and serialises the requests.
void BuildBatches(Traffic* t) {
  for (size_t li = 0; li < t->logs.size(); ++li) {
    const online::ReplayLog& log = t->logs[li];
    size_t cursor = 0;
    for (size_t si = 0; si < log.samples.size(); ++si) {
      Batch batch;
      batch.instance = t->specs[li].instance_id;
      batch.sec = log.samples[si].sec;
      batch.log_index = li;
      batch.sample_index = si;
      batch.rec_begin = cursor;
      const int64_t end_ms = (batch.sec + 1) * 1000;
      while (cursor < log.records.size() &&
             log.records[cursor].arrival_ms < end_ms) {
        ++cursor;
      }
      // Trailing records past the last sample ride with the last batch.
      if (si + 1 == log.samples.size()) cursor = log.records.size();
      batch.rec_end = cursor;
      t->batches.push_back(std::move(batch));
    }
  }
  std::stable_sort(t->batches.begin(), t->batches.end(),
                   [](const Batch& a, const Batch& b) {
                     return a.sec != b.sec ? a.sec < b.sec
                                           : a.instance < b.instance;
                   });
  t->digest = Fnv1a("");
  for (Batch& batch : t->batches) {
    const online::ReplayLog& log = t->logs[batch.log_index];
    const std::string body =
        BatchBody(batch.instance, log.records.data() + batch.rec_begin,
                  batch.records(), log.samples[batch.sample_index]);
    batch.wire = "POST /v1/ingest HTTP/1.1\r\nHost: localhost\r\n";
    batch.wire += "X-Pinsql-Tenant: ";
    batch.wire += kTenant;
    batch.wire += "\r\nContent-Type: application/json\r\nContent-Length: ";
    AppendInt(&batch.wire, static_cast<int64_t>(body.size()));
    batch.wire += "\r\n\r\n";
    batch.body_offset = batch.wire.size();
    batch.wire += body;
    t->digest = Fnv1a(batch.wire, t->digest);
    t->total_records += batch.records();
    t->total_wire_bytes += batch.wire.size();
  }
  t->first_sec = t->batches.empty() ? 0 : t->batches.front().sec;
  t->last_sec = t->batches.empty() ? 0 : t->batches.back().sec;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"fleet_steady",
                                                  "long_incidents"};
  return kNames;
}

std::string BatchBody(uint32_t instance, const QueryLogRecord* records,
                      size_t num_records, const online::PerfSample& sample) {
  std::string out;
  out.reserve(64 + num_records * 80);
  out += "{\"instance\":";
  AppendInt(&out, instance);
  out += ",\"records\":[";
  for (size_t i = 0; i < num_records; ++i) {
    const QueryLogRecord& r = records[i];
    if (i > 0) out += ',';
    out += "{\"arrival_ms\":";
    AppendInt(&out, r.arrival_ms);
    out += ",\"sql_id\":";
    AppendInt(&out, static_cast<int64_t>(r.sql_id));
    out += ",\"response_ms\":";
    AppendDouble(&out, r.response_ms);
    out += ",\"examined_rows\":";
    AppendInt(&out, r.examined_rows);
    out += '}';
  }
  out += "],\"samples\":[{\"sec\":";
  AppendInt(&out, sample.sec);
  out += ",\"active_session\":";
  AppendDouble(&out, sample.active_session);
  out += ",\"cpu_usage\":";
  AppendDouble(&out, sample.cpu_usage);
  out += ",\"iops_usage\":";
  AppendDouble(&out, sample.iops_usage);
  out += ",\"row_lock_waits\":";
  AppendDouble(&out, sample.row_lock_waits);
  out += ",\"mdl_waits\":";
  AppendDouble(&out, sample.mdl_waits);
  out += "}]}";
  return out;
}

bool MakeTraffic(const std::string& workload, uint64_t seed, Traffic* out) {
  Traffic t;
  t.workload = workload;
  t.seed = seed;
  if (workload == "fleet_steady") {
    MakeFleetTraffic(seed, &t);
  } else if (workload == "long_incidents") {
    MakeLongIncidentTraffic(seed, &t);
  } else {
    return false;
  }
  for (online::ReplayLog& log : t.logs) SanitizeSamples(&log);
  BuildBatches(&t);
  *out = std::move(t);
  return true;
}

}  // namespace perfbench
