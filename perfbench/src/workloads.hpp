// The benchmark's workloads.  Each repetition builds its system from the
// seed, runs it to completion, checks every output and reports what it
// measured.  A repetition is deterministic given the seed: everything in
// RepResult except the host times and the per-layer metrics derived from
// them must repeat bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RepResult {
  // Host time.
  double setup_s = 0;     // build topology, converge routing, hosts
  double run_wall_s = 0;  // the measured phase: first call to last byte
  // Outcome, checked against the seeded inputs.
  std::uint64_t payload_bytes = 0;  // verified application bytes delivered
  std::uint64_t attempted = 0;      // operations: transfers, RPCs or flows
  std::uint64_t failed = 0;         // incomplete or mismatched operations
  // Simulated, deterministic.
  double sim_seconds = 0;  // connect to last verified byte
  std::vector<std::int64_t> op_latency_ns;  // sorted
  std::uint64_t events = 0;
  /// Hash of every deterministic output: events, latencies, simulated
  /// time and the registry's counters.
  std::uint64_t fingerprint = 0;
  /// Per-layer metrics; filled in by traced repetitions only.
  std::map<std::string, double> layer;
};

/// Builds the system from `seed` and runs one repetition.  `traced` turns
/// on spans and allocation counting and fills RepResult::layer.  The
/// payloads and schedules a seed derives are generated once per process.
RepResult run_tower_bulk(std::uint64_t seed, bool traced);
RepResult run_tower_rpc_lossy(std::uint64_t seed, bool traced);
RepResult run_ring_sharded(std::uint64_t seed, bool traced);

/// Setup only, for extra setup_s samples: builds and converges the
/// workload's system and returns the host seconds that took.
double setup_only_tower(std::uint64_t seed, bool lossy);
double setup_only_ring(std::uint64_t seed);

// ---- helpers shared by the workloads ----

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/// Zeroes the process-wide metrics registry and span tracer, so a
/// repetition's counters cover that repetition alone.
void reset_telemetry();

/// num / den, or 0 when den is 0 (a metric that does not apply).
double ratio(double num, double den);

/// How much counter `name` grew between two registry snapshots.
double counter_delta(const Counters& before, const Counters& after,
                     const char* name);

/// Sets the transport.* per-layer counts from two registry snapshots.
void add_transport_metrics(const Counters& before, const Counters& after,
                           std::map<std::string, double>& m);

/// Hash of a repetition's deterministic outputs: events, simulated time,
/// delivered bytes, failures, every latency sample, the registry counters
/// and `extra`.
std::uint64_t fingerprint(const RepResult& r, const Counters& counters,
                          std::uint64_t extra = 0);

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in print order.  Metrics that do not apply to
/// a workload are reported as 0 (for example, datalink costs on the
/// ring, which has no datalink tower).
const std::vector<LayerMetric>& layer_metrics();

}  // namespace perfbench
