#include "store/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/report.h"
#include "obs/metrics.h"
#include "store/codec.h"
#include "store/crc32c.h"
#include "util/json.h"

namespace pinsql::store {

namespace {

constexpr char kCheckpointMagic[8] = {'P', 'S', 'Q', 'L', 'C', 'K', 'P', '1'};
// v2: ensemble-backed detector state (forecaster snapshots, gap-reset
// counters) and trigger source attribution. v1 checkpoints fail the
// version check and recovery falls back to the WAL, which replays into
// the new format.
constexpr uint32_t kCheckpointVersion = 2;
// magic(8) + version(4) at the front, crc(4) at the back.
constexpr size_t kCheckpointOverhead = 16;

// ---------------------------------------------------------------------------
// Field lists of the checkpoint body (see codec.h). The second argument of
// each Seq is the element's minimum encoded size, the bound a decoded count
// is checked against before anything is allocated.

template <typename Io, typename State>
bool IngestorFields(Io& io, State& state) {
  return io.Seq(state.shards, 48,
                [&](auto& shard) {
                  return io.Seq(shard.queue, 32,
                                [&](auto& record) {
                                  return codec::RecordFields(io, record);
                                }) &&
                         io.U64(shard.enqueued) &&
                         io.U64(shard.dropped_backpressure) &&
                         io.U64(shard.folded) && io.U64(shard.dropped_late) &&
                         io.Seq(shard.buckets, 16, [&](auto& bucket) {
                           return io.I64(bucket.sec) &&
                                  io.Seq(bucket.cells, 32, [&](auto& cell) {
                                    return io.U64(cell.sql_id) &&
                                           io.F64(cell.count) &&
                                           io.F64(cell.total_response_ms) &&
                                           io.F64(cell.examined_rows);
                                  });
                         });
                }) &&
         io.Seq(state.metric_buckets, 56,
                [&](auto& bucket) {
                  return io.I64(bucket.sec) &&
                         codec::SampleFields(io, bucket.sample);
                }) &&
         io.U64(state.metric_samples) && io.U64(state.metric_samples_dropped) &&
         io.I64(state.watermark);
}

template <typename Io, typename Screen>
bool ScreenFields(Io& io, Screen& screen) {
  return io.Seq(screen.clean, 8, [&](auto& v) { return io.F64(v); }) &&
         io.F64(screen.baseline_median) && io.F64(screen.baseline_mad) &&
         io.Bool(screen.baseline_fresh) && io.Bool(screen.in_run) &&
         io.Bool(screen.run_up) && io.U64(screen.run_start) &&
         io.F64(screen.run_peak) && io.F64(screen.last_z) &&
         io.U64(screen.count) && io.I64(screen.start_time) &&
         io.I64(screen.interval_sec);
}

template <typename Io, typename Forecast>
bool ForecastFields(Io& io, Forecast& fc) {
  return io.Enum(fc.method, detect::ForecastMethod::kEwmaSketch,
                 codec::Width::kU32) &&
         io.U64(fc.count) && io.F64(fc.mad) && io.F64(fc.cusum) &&
         io.U64(fc.cusum_start) && io.U64(fc.cusum_anchor) &&
         io.Bool(fc.cusum_anchor_set) && io.F64(fc.block_sum) &&
         io.U64(fc.block_n) && io.Bool(fc.in_run) && io.Bool(fc.run_up) &&
         io.Bool(fc.drift_run) && io.U64(fc.run_start) &&
         io.F64(fc.run_peak) && io.F64(fc.last_z) && io.I64(fc.start_time) &&
         io.I64(fc.interval_sec) &&
         io.Seq(fc.model, 8, [&](auto& v) { return io.F64(v); });
}

template <typename Io, typename State>
bool DetectorFields(Io& io, State& state) {
  auto& ensemble = state.ensemble;
  auto& stats = state.stats;
  return io.Bool(ensemble.initialized) && io.Bool(ensemble.screen_present) &&
         ScreenFields(io, ensemble.screen) &&
         io.Seq(ensemble.trailing, 8, [&](auto& v) { return io.F64(v); }) &&
         io.Bool(ensemble.fired_this_incident) &&
         io.U64(ensemble.pettitt_rejections) &&
         io.Seq(ensemble.forecasters, 80,
                [&](auto& fc) { return ForecastFields(io, fc); }) &&
         io.F64(state.last_finite) && io.Bool(state.seen_finite) &&
         io.U64(state.consecutive_gaps) &&
         io.Seq(state.latencies, 8, [&](auto& v) { return io.I64(v); }) &&
         io.U64(stats.samples) && io.U64(stats.gaps_carried) &&
         io.U64(stats.gaps_skipped) && io.U64(stats.triggers) &&
         io.U64(stats.pettitt_rejections) && io.U64(stats.baseline_resets);
}

template <typename Io, typename Trigger>
bool TriggerFields(Io& io, Trigger& trigger) {
  return io.U32(trigger.instance_id) && io.I64(trigger.onset_sec) &&
         io.I64(trigger.trigger_sec) && io.F64(trigger.severity) &&
         io.F64(trigger.pettitt_p) && io.Str(trigger.source);
}

// The report round-trips byte-exactly through its JSON form (see
// report_test), so the checkpoint reuses it instead of a second binary
// schema for the deepest struct in the repo.
std::string ReportJson(const core::DiagnosisReport& report) {
  return report.ToJson().Dump();
}

bool ParseReportJson(std::string_view text, core::DiagnosisReport* report) {
  auto json = Json::Parse(text);
  if (!json.ok()) return false;
  auto parsed = core::DiagnosisReport::FromJson(*json);
  if (!parsed.ok()) return false;
  *report = std::move(parsed).value();
  return true;
}

template <typename Io, typename State>
bool SchedulerFields(Io& io, State& state) {
  auto& stats = state.stats;
  return io.Seq(state.pending, 44,
                [&](auto& pending) {
                  return TriggerFields(io, pending.trigger) &&
                         io.I64(pending.due_sec);
                }) &&
         io.Seq(state.dedup_activity, 12,
                [&](auto& activity) {
                  return io.U32(activity.first) && io.I64(activity.second);
                }) &&
         io.U64(stats.triggers_accepted) && io.U64(stats.triggers_suppressed) &&
         io.U64(stats.diagnoses_ok) && io.U64(stats.diagnoses_failed) &&
         io.U64(stats.repairs_applied) && io.U64(stats.repairs_rejected) &&
         io.Seq(state.outcomes, 64, [&](auto& outcome) {
           return TriggerFields(io, outcome.trigger) && io.Bool(outcome.ok) &&
                  io.Str(outcome.error) &&
                  io.Text(outcome.report, ReportJson, ParseReportJson) &&
                  io.Seq(outcome.confirmed_rsqls, 8,
                         [&](auto& id) { return io.U64(id); }) &&
                  io.U64(outcome.repairs_applied) && io.F64(outcome.ttr_sec);
         });
}

/// The whole body. Labels name the failing section; DecodeCheckpointBody
/// prefixes them with "checkpoint: ".
template <typename Io, typename Data>
bool CheckpointFields(Io& io, Data& data) {
  auto& service = data.service;
  return io.Label(io.U64(data.lsn.segment_seq) && io.U64(data.lsn.offset),
                  "truncated LSN") &&
         io.Label(IngestorFields(io, service.ingestor),
                  "malformed ingestor state") &&
         io.Label(DetectorFields(io, service.detector),
                  "malformed detector state") &&
         io.Label(SchedulerFields(io, service.scheduler),
                  "malformed scheduler state") &&
         io.Label(io.Bool(service.processed_any) &&
                      io.I64(service.last_processed_sec) &&
                      io.I64(service.retention_sweeps) &&
                      io.U64(service.records_retired) &&
                      io.I64(service.seconds_processed),
                  "truncated service counters") &&
         io.Label(io.Seq(service.archive_records, 32,
                         [&](auto& record) {
                           return io.Label(codec::RecordFields(io, record),
                                           "truncated archive record");
                         }),
                  "implausible archive size") &&
         io.Label(io.Seq(service.catalog, 25,
                         [&](auto& entry) {
                           return io.Label(
                               io.U64(entry.first) &&
                                   codec::TemplateFields(
                                       io, entry.second, codec::Width::kU64,
                                       {}, "malformed catalog table"),
                               "malformed catalog entry");
                         }),
                  "implausible catalog size") &&
         io.Label(io.Seq(data.audit, 52,
                         [&](auto& event) {
                           return io.Relabel(
                               codec::RepairEventFields(io, event),
                               "malformed audit event");
                         }),
                  "implausible audit size");
}

/// Parses the counter out of a checkpoint file name, or nullopt when the
/// name is not of the ckpt-<digits>.ckpt form.
std::optional<uint64_t> ParseCheckpointCounter(const std::string& name) {
  constexpr std::string_view kPrefix = "ckpt-";
  constexpr std::string_view kSuffix = ".ckpt";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return std::nullopt;
  }
  uint64_t counter = 0;
  for (size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    counter = counter * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return counter;
}

}  // namespace

std::string CheckpointFileName(uint64_t counter) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ckpt-%06llu.ckpt",
                static_cast<unsigned long long>(counter));
  return buf;
}

std::string EncodeCheckpointBody(const CheckpointData& data) {
  std::string out;
  codec::Writer w(&out);
  CheckpointFields(w, data);
  return out;
}

StatusOr<CheckpointData> DecodeCheckpointBody(std::string_view body) {
  CheckpointData data;
  codec::Reader r(body);
  if (!CheckpointFields(r, data)) {
    return Status::ParseError("checkpoint: " + r.error());
  }
  if (!r.exhausted()) {
    return Status::ParseError("checkpoint: trailing bytes");
  }
  return data;
}

Status WriteCheckpoint(Env* env, const std::string& dir, uint64_t counter,
                       const CheckpointData& data) {
  std::string file;
  codec::Writer w(&file);
  file.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  w.U32(kCheckpointVersion);
  file += EncodeCheckpointBody(data);
  w.U32(Crc32c(file));

  const std::string final_path = dir + "/" + CheckpointFileName(counter);
  const std::string tmp_path = final_path + ".tmp";
  auto out = env->NewWritableFile(tmp_path);
  if (!out.ok()) return out.status();
  if (Status status = (*out)->Append(file); !status.ok()) return status;
  if (Status status = (*out)->Sync(); !status.ok()) {
    // Unlike the WAL's advisory fsync, a checkpoint that is not on stable
    // storage must never be renamed into place: a power loss could leave a
    // torn file under the authoritative name.
    (*out)->Close();
    env->DeleteFile(tmp_path);
    return status;
  }
  if (Status status = (*out)->Close(); !status.ok()) return status;
  if (Status status = env->RenameFile(tmp_path, final_path); !status.ok()) {
    return status;
  }
  Status status = env->SyncDir(dir);
  PINSQL_OBS_COUNT("store.checkpoints_written", 1);
  PINSQL_OBS_COUNT("store.checkpoint_bytes",
                   static_cast<uint64_t>(file.size()));
  return status;
}

StatusOr<LoadedCheckpoint> LoadLatestCheckpoint(Env* env,
                                                const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<uint64_t, std::string>> checkpoints;
  for (const std::string& name : *names) {
    if (auto counter = ParseCheckpointCounter(name); counter.has_value()) {
      checkpoints.emplace_back(*counter, name);
    }
  }
  std::sort(checkpoints.rbegin(), checkpoints.rend());

  LoadedCheckpoint loaded;
  for (const auto& [counter, name] : checkpoints) {
    std::string file;
    if (Status status = env->ReadFile(dir + "/" + name, &file);
        !status.ok()) {
      ++loaded.corrupt_skipped;
      continue;
    }
    bool valid = file.size() >= kCheckpointOverhead &&
                 std::memcmp(file.data(), kCheckpointMagic,
                             sizeof(kCheckpointMagic)) == 0;
    if (valid) {
      codec::Reader header(
          std::string_view(file).substr(sizeof(kCheckpointMagic), 4));
      uint32_t version = 0;
      header.U32(version);
      valid = version == kCheckpointVersion;
    }
    if (valid) {
      codec::Reader footer(std::string_view(file).substr(file.size() - 4));
      uint32_t crc = 0;
      footer.U32(crc);
      valid = crc == Crc32c(file.data(), file.size() - 4);
    }
    if (valid) {
      auto data = DecodeCheckpointBody(
          std::string_view(file).substr(12, file.size() - kCheckpointOverhead));
      if (data.ok()) {
        loaded.counter = counter;
        loaded.data = std::move(data).value();
        return loaded;
      }
    }
    // Corrupt or unreadable: fall back to the next-older checkpoint. Its
    // older LSN just means a longer WAL replay — never data loss, because
    // segments are only deleted once covered by the *oldest* retained
    // checkpoint (see WalWriter::DeleteSealedSegments).
    ++loaded.corrupt_skipped;
    PINSQL_OBS_COUNT("store.checkpoints_corrupt_skipped", 1);
  }
  return Status::NotFound("no valid checkpoint in " + dir);
}

size_t PruneCheckpoints(Env* env, const std::string& dir, size_t keep) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return 0;
  std::vector<std::pair<uint64_t, std::string>> checkpoints;
  size_t deleted = 0;
  for (const std::string& name : *names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0 &&
        ParseCheckpointCounter(name.substr(0, name.size() - 4)).has_value()) {
      // Leftover from an interrupted write; never authoritative.
      if (env->DeleteFile(dir + "/" + name).ok()) ++deleted;
      continue;
    }
    if (auto counter = ParseCheckpointCounter(name); counter.has_value()) {
      checkpoints.emplace_back(*counter, name);
    }
  }
  std::sort(checkpoints.rbegin(), checkpoints.rend());
  for (size_t i = keep; i < checkpoints.size(); ++i) {
    if (env->DeleteFile(dir + "/" + checkpoints[i].second).ok()) ++deleted;
  }
  return deleted;
}

size_t DeleteOtherCheckpoints(Env* env, const std::string& dir,
                              uint64_t keep_counter) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return 0;
  size_t deleted = 0;
  for (const std::string& name : *names) {
    std::string stem = name;
    if (stem.size() > 4 && stem.compare(stem.size() - 4, 4, ".tmp") == 0) {
      stem = stem.substr(0, stem.size() - 4);
    }
    const auto counter = ParseCheckpointCounter(stem);
    if (!counter.has_value()) continue;
    if (stem == name && *counter == keep_counter) continue;
    if (env->DeleteFile(dir + "/" + name).ok()) ++deleted;
  }
  return deleted;
}

}  // namespace pinsql::store
