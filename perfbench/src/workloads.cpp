#include "workloads.hpp"

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace perfbench {
namespace {

/// FNV-1a style mixing of a 64-bit word into a running hash.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0x100000001b3ull;
}

std::uint64_t counter(const Counters& c, const char* name) {
  for (const auto& [n, v] : c) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace

void reset_telemetry() {
  sublayer::telemetry::MetricsRegistry::instance().reset();
  sublayer::telemetry::SpanTracer::instance().reset();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double counter_delta(const Counters& before, const Counters& after,
                     const char* name) {
  return static_cast<double>(counter(after, name) - counter(before, name));
}

void add_transport_metrics(const Counters& before, const Counters& after,
                           std::map<std::string, double>& m) {
  const auto d = [&](const char* name) {
    return counter_delta(before, after, name);
  };
  m["transport.rd.retransmits"] = d("transport.rd.fast_retransmits") +
                                  d("transport.rd.timeout_retransmits") +
                                  d("transport.rd.tail_probes");
  m["transport.cm.syn_sent"] = d("transport.cm.syn_sent");
  m["transport.dm.segments_in"] = d("transport.dm.segments_in");
  m["transport.osr.cwnd_stalls"] = d("transport.osr.cwnd_stalls");
}

std::uint64_t fingerprint(const RepResult& r, const Counters& counters,
                          std::uint64_t extra) {
  std::uint64_t h = mix(extra, r.events);
  h = mix(h, static_cast<std::uint64_t>(r.sim_seconds * 1e9));
  h = mix(h, r.payload_bytes);
  h = mix(h, r.failed);
  for (const std::int64_t l : r.op_latency_ns) {
    h = mix(h, static_cast<std::uint64_t>(l));
  }
  for (const auto& [name, value] : counters) {
    for (const char c : name) h = mix(h, static_cast<unsigned char>(c));
    h = mix(h, value);
  }
  return h;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"datalink.up.ns_per_frame", "ns"},
      {"datalink.down.ns_per_frame", "ns"},
      {"sim.link.ns_per_frame", "ns"},
      {"netlayer.fwd.ns_per_datagram", "ns"},
      {"transport.rx.ns_per_segment", "ns"},
      {"transport.tx.ns_per_call", "ns"},
      {"sim.self_ns_per_event", "ns"},
      {"sim.events", "count"},
      {"datalink.wire_frames", "count"},
      {"datalink.useful_frac", "ratio"},
      {"datalink.arq.retransmissions", "count"},
      {"datalink.up_failures", "count"},
      {"transport.rd.retransmits", "count"},
      {"transport.cm.syn_sent", "count"},
      {"transport.dm.segments_in", "count"},
      {"transport.osr.cwnd_stalls", "count"},
      {"datalink.allocs_per_frame", "1/frame"},
      {"datalink.arena.recycled_frac", "ratio"},
      {"alloc.per_KB", "1/KB"},
      {"sim.parallel.epochs", "count"},
      {"sim.parallel.cross_shard_frames", "count"},
      {"sim.parallel.runahead_shard_epochs", "count"},
      {"sim.parallel.ns_per_epoch", "ns"},
      {"sim.ns_per_event", "ns"},
  };
  return metrics;
}

}  // namespace perfbench
