#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

// Seeded input generation for the online-path benchmark. Every workload is
// a set of instances, each streaming one batch per simulated second (its
// query-log records of that second plus its PerfSample), pre-serialised as
// complete POST /v1/ingest requests before any timing starts.

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_service.h"
#include "logstore/log_store.h"
#include "online/replay.h"

namespace perfbench {

namespace fleet = pinsql::fleet;
namespace online = pinsql::online;
using pinsql::LogStore;
using pinsql::QueryLogRecord;

inline constexpr char kTenant[] = "bench";

/// One instance-second: records [rec_begin, rec_end) and sample
/// `sample_index` of logs[log_index], serialised into `wire`.
struct Batch {
  uint32_t instance = 0;
  int64_t sec = 0;
  size_t log_index = 0;
  size_t rec_begin = 0;
  size_t rec_end = 0;
  size_t sample_index = 0;
  size_t records() const { return rec_end - rec_begin; }
  std::string wire;  // full HTTP/1.1 request bytes
  size_t body_offset = 0;  // where the JSON body starts inside `wire`
};

/// One injected incident and its ground-truth root templates.
struct Incident {
  uint32_t instance = 0;
  int64_t onset_sec = 0;
  int64_t end_sec = 0;
  std::vector<uint64_t> roots;
  std::string kind;
};

struct Traffic {
  std::string workload;
  uint64_t seed = 0;
  std::vector<fleet::FleetInstanceSpec> specs;
  std::vector<online::ReplayLog> logs;  // parallel to specs
  LogStore catalog;
  std::vector<Batch> batches;  // (sec, instance) order: the send schedule
  std::vector<Incident> incidents;
  fleet::FleetOptions fleet_options;
  /// Share of --seconds given to the open-loop phase; the closed-loop
  /// saturation phase gets the rest.
  double open_loop_share = 0.7;
  size_t total_records = 0;
  size_t total_wire_bytes = 0;
  int64_t first_sec = 0;
  int64_t last_sec = 0;
  /// FNV-1a over every request's bytes, in schedule order.
  uint64_t digest = 0;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the traffic of `workload` from `seed`; the same pair always
/// yields byte-identical requests. Returns false for an unknown workload.
bool MakeTraffic(const std::string& workload, uint64_t seed, Traffic* out);

/// Serialises one batch body exactly as the benchmark sends it.
std::string BatchBody(uint32_t instance, const QueryLogRecord* records,
                      size_t num_records, const online::PerfSample& sample);

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
