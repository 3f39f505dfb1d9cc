#ifndef PINSQL_FLEET_FLEET_REPLAY_H_
#define PINSQL_FLEET_FLEET_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/fleet_service.h"
#include "logstore/log_store.h"
#include "online/replay.h"

namespace pinsql::fleet {

struct FleetReplayOptions {
  FleetOptions fleet;
  /// Concurrent ingest workers feeding the fleet. Worker w owns the
  /// instances with index ≡ w (mod num_ingest_workers) and pushes each
  /// owned instance's records and samples in recorded order, so every
  /// per-instance ingest order — and therefore the fingerprint — is
  /// identical at any worker count.
  int num_ingest_workers = 2;
};

struct FleetResult {
  /// Completion order (schedule-dependent; the fingerprint sorts).
  std::vector<FleetOutcome> outcomes;
  std::vector<StormBatch> storms;
  std::vector<NoisyNeighborVerdict> neighbors;
  /// Per-instance detection latencies, in firing order.
  std::map<uint32_t, std::vector<int64_t>> latencies;
  FleetStats stats;

  /// Deterministic digest of everything the fleet replay promises
  /// bit-reproducible: every outcome (sorted by instance, onset, trigger —
  /// schedule-invariant), every storm batch and every noisy-neighbor
  /// verdict. Two replays of one fleet log are correct iff their
  /// fingerprints are byte-identical — at any ingest shard count, any
  /// diagnoser pool size, any ingest worker count and any
  /// advance_workers. Stats are excluded (queue depths legitimately vary
  /// with pool size).
  std::string Fingerprint() const;

  /// Digest of one instance's slice (online::InstanceFingerprint over its
  /// outcomes sorted by onset then trigger, with the instance id
  /// normalized to 0) — byte-comparable to ReplayResult::Fingerprint() of
  /// a solo replay of the same stream, which is how the chaos suite proves
  /// per-instance isolation (an unfaulted co-tenant is bit-identical to
  /// its solo run).
  std::string InstanceFingerprint(uint32_t instance_id) const;
};

/// Replays one recorded stream per instance through a fresh FleetService,
/// bit-deterministically: the fleet clock sweeps the union of the
/// instances' sample spans, each simulated second is fully ingested for
/// every instance before the fleet processes it, report timing fields are
/// zeroed so replays are byte-comparable, and `catalog` seeds every
/// instance's archive. `logs` is parallel to `specs`; an instance with no
/// samples never starts its virtual clock (its records are not
/// processed).
FleetResult RunFleetReplay(const std::vector<FleetInstanceSpec>& specs,
                           const std::vector<online::ReplayLog>& logs,
                           const LogStore& catalog,
                           const FleetReplayOptions& options);

}  // namespace pinsql::fleet

#endif  // PINSQL_FLEET_FLEET_REPLAY_H_
