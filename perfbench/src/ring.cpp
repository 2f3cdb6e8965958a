// ring_sharded: the E14.3 ring.  Eight routers joined in a ring by plain
// sim links (no datalink tower), one router per shard of a
// ParallelSimulator, and 4096 keepalive-on flows of 64 KiB, each from the
// host on router f%8 to the host three hops on.
//
// The engine runs on one worker.  With four, the run waits at each epoch
// barrier for the slowest worker, and on a shared virtual machine whose
// CPU share changes under other tenants' load the same run took 3 s in
// one minute and 9 s in another (a third of each CPU's time stolen).  One
// worker still runs every part of the sharded engine (mailboxes, drains,
// epochs, cross-shard frames) and takes the same events in the same order.
//
// Transport callbacks run on the worker thread, so the traced repetition
// records only the root span on the calling thread; the per-layer numbers
// here come from the engine's counters and the merged registries.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/rng.hpp"
#include "netlayer/router.hpp"
#include "sim/parallel.hpp"
#include "trace.hpp"
#include "transport/sublayered/host.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace sublayer;

constexpr std::size_t kRing = 8;
constexpr std::size_t kThreads = 1;
constexpr std::size_t kFlows = 4096;
constexpr std::size_t kFlowBytes = 64 * 1024;
constexpr std::size_t kHops = 3;
constexpr std::size_t kPool = 16;  // distinct flow payloads
constexpr std::size_t kIdBytes = 4;
constexpr std::int64_t kStaggerNs = 10'000;
const TimePoint kWarmupEnd = TimePoint::from_ns(Duration::millis(500).ns());
const TimePoint kDeadline = TimePoint::from_ns(Duration::seconds(30.0).ns());

netlayer::RouterConfig router_config() {
  netlayer::RouterConfig rc;
  rc.routing = netlayer::RoutingKind::kLinkState;
  rc.neighbor.dead_interval = Duration::seconds(3600.0);
  return rc;
}

sim::LinkConfig link_config() {
  sim::LinkConfig link;
  link.bandwidth_bps = 10e9;
  link.propagation_delay = Duration::micros(100);
  link.queue_limit = 4096;
  return link;
}

struct RingInputs {
  std::vector<Bytes> pool;             // flow f sends pool[f % kPool]...
  std::vector<std::int64_t> start_ns;  // ...with its id in the first bytes
};

const RingInputs& ring_inputs(std::uint64_t seed) {
  static std::uint64_t cached_seed = 0;
  static RingInputs in;
  if (in.pool.empty() || cached_seed != seed) {
    Rng rng(seed ^ 0x41e6ull);
    in = RingInputs{};
    for (std::size_t i = 0; i < kPool; ++i) {
      in.pool.push_back(rng.next_bytes(kFlowBytes));
    }
    for (std::size_t f = 0; f < kFlows; ++f) {
      in.start_ns.push_back(kWarmupEnd.ns() +
                            kStaggerNs * static_cast<std::int64_t>(f + 1) +
                            rng.next_in(0, kStaggerNs - 1));
    }
    cached_seed = seed;
  }
  return in;
}

Bytes flow_payload(const RingInputs& in, std::size_t f) {
  Bytes p = in.pool[f % kPool];
  const auto id = static_cast<std::uint32_t>(f);
  std::memcpy(p.data(), &id, kIdBytes);
  return p;
}

/// The ring, converged, with a host and listener on every router.  The
/// listeners check each flow's bytes and record when it completed.
struct Ring {
  Ring(const RingInputs& in, std::uint64_t seed) : inputs(in) {
    sim::ParallelConfig pc;
    pc.shards = kRing;
    pc.threads = kThreads;
    psim = std::make_unique<sim::ParallelSimulator>(pc);
    sim::ShardMap map(kRing);
    for (std::size_t i = 0; i < kRing; ++i) map.assign(i, i);
    net = std::make_unique<netlayer::Network>(*psim, router_config(), seed,
                                              map);
    for (std::size_t i = 0; i < kRing; ++i) net->add_router();
    for (std::size_t i = 0; i < kRing; ++i) {
      net->connect(static_cast<netlayer::RouterId>(i),
                   static_cast<netlayer::RouterId>((i + 1) % kRing),
                   link_config());
    }
    net->start();
    psim->run_until(kWarmupEnd);
    if (!net->fully_converged()) {
      throw std::runtime_error("ring: routing did not converge");
    }
    finished_at.assign(kFlows, -1);
    transport::HostConfig hc;
    hc.connection.cm.keepalive_interval = Duration::seconds(2.0);
    for (std::size_t i = 0; i < kRing; ++i) {
      const auto id = static_cast<netlayer::RouterId>(i);
      sim::ParallelSimulator::ShardScope scope(*psim, net->shard_of(id));
      hosts.push_back(
          std::make_unique<transport::TcpHost>(net->router(id), 1, hc));
      sim::Simulator* shard_sim = &net->sim_of(id);
      hosts.back()->listen(80, [this, shard_sim, i](transport::Connection& c) {
        auto flow = std::make_shared<FlowRx>();
        transport::Connection::AppCallbacks cb;
        cb.on_data = [this, shard_sim, flow, i](Bytes d) {
          on_flow_data(*flow, d, i, shard_sim->now());
        };
        c.set_app_callbacks(cb);
      });
    }
  }

  struct FlowRx {
    std::size_t received = 0;
    std::uint8_t id_bytes[kIdBytes] = {};
    bool ok = true;
  };

  // Runs on the worker thread of the receiving shard.  Flow f always
  // lands on router (f + kHops) % kRing, so its slot in finished_at is
  // read and written by that shard's thread alone.
  void on_flow_data(FlowRx& rx, const Bytes& d, std::size_t router,
                    TimePoint now) {
    std::size_t i = 0;
    for (; i < d.size() && rx.received + i < kIdBytes; ++i) {
      rx.id_bytes[rx.received + i] = d[i];
    }
    const std::size_t begin = rx.received + i;
    rx.received += d.size();
    if (rx.received < kIdBytes) return;
    std::uint32_t f = 0;
    std::memcpy(&f, rx.id_bytes, kIdBytes);
    if (f >= kFlows || (f + kHops) % kRing != router ||
        finished_at[f] >= 0 || rx.received > kFlowBytes) {
      rx.ok = false;
    } else if (std::memcmp(d.data() + i,
                           inputs.pool[f % kPool].data() + begin,
                           d.size() - i) != 0) {
      rx.ok = false;
    }
    if (rx.received != kFlowBytes) return;
    if (rx.ok) {
      finished_at[f] = now.ns();
      verified.fetch_add(1, std::memory_order_relaxed);
    }
    completed.fetch_add(1, std::memory_order_relaxed);
  }

  const RingInputs& inputs;
  std::unique_ptr<sim::ParallelSimulator> psim;
  std::unique_ptr<netlayer::Network> net;
  std::vector<std::unique_ptr<transport::TcpHost>> hosts;
  std::vector<std::int64_t> finished_at;
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> verified{0};
};

}  // namespace

RepResult run_ring_sharded(std::uint64_t seed, bool traced_rep) {
  const RingInputs& inputs = ring_inputs(seed);
  reset_telemetry();
  RepResult out;
  const std::int64_t setup0 = now_ns();
  Ring ring(inputs, seed);
  out.setup_s = static_cast<double>(now_ns() - setup0) * 1e-9;

  const auto counters_before = ring.psim->merged_metrics().counters;
  const std::uint64_t events0 = ring.psim->events_processed();
  const std::uint64_t epochs0 = ring.psim->epochs();
  const std::uint64_t runahead0 = ring.psim->runahead_shard_epochs();
  const std::uint64_t cross0 = ring.psim->cross_shard_frames();
  tracer().reset(traced_rep);
  set_alloc_counting(traced_rep);
  const std::uint64_t allocs0 = alloc_count();
  std::uint32_t root = 0;
  if (traced_rep) root = tracer().open(Seam::kRun);
  const std::int64_t wall0 = now_ns();

  for (std::size_t f = 0; f < kFlows; ++f) {
    transport::TcpHost* client = ring.hosts[f % kRing].get();
    transport::TcpHost* server = ring.hosts[(f % kRing + kHops) % kRing].get();
    ring.psim
        ->shard(ring.net->shard_of(static_cast<netlayer::RouterId>(f % kRing)))
        .schedule_at(TimePoint::from_ns(inputs.start_ns[f]),
                     [client, server, &inputs, f] {
                       client->connect(server->addr(), 80)
                           .send(flow_payload(inputs, f));
                     });
  }
  ring.psim->run_until(kDeadline, [&ring] {
    return ring.completed.load(std::memory_order_relaxed) >= kFlows;
  });

  const std::int64_t wall1 = now_ns();
  if (traced_rep) {
    tracer().close(root);
    tracer().stop();
  }
  const std::uint64_t allocs1 = alloc_count();
  set_alloc_counting(false);

  out.run_wall_s = static_cast<double>(wall1 - wall0) * 1e-9;
  out.events = ring.psim->events_processed() - events0;
  out.attempted = kFlows;
  const std::size_t good = ring.verified.load(std::memory_order_relaxed);
  out.failed = kFlows - good;
  out.payload_bytes = good * kFlowBytes;
  std::int64_t last = 0;
  for (std::size_t f = 0; f < kFlows; ++f) {
    if (ring.finished_at[f] < 0) continue;
    out.op_latency_ns.push_back(ring.finished_at[f] - inputs.start_ns[f]);
    last = std::max(last, ring.finished_at[f]);
  }
  std::sort(out.op_latency_ns.begin(), out.op_latency_ns.end());
  out.sim_seconds =
      static_cast<double>(last - inputs.start_ns.front()) * 1e-9;

  const auto counters = ring.psim->merged_metrics().counters;
  out.fingerprint =
      fingerprint(out, counters,
                  (ring.psim->epochs() - epochs0) * 0x9e3779b97f4a7c15ull ^
                      (ring.psim->cross_shard_frames() - cross0));

  if (traced_rep) {
    const double events = static_cast<double>(out.events);
    const double epochs = static_cast<double>(ring.psim->epochs() - epochs0);
    const double wall_ns = static_cast<double>(wall1 - wall0);
    auto& m = out.layer;
    m["sim.events"] = events;
    m["sim.ns_per_event"] = ratio(wall_ns, events);
    m["sim.self_ns_per_event"] = m["sim.ns_per_event"];
    m["sim.parallel.epochs"] = epochs;
    m["sim.parallel.cross_shard_frames"] =
        static_cast<double>(ring.psim->cross_shard_frames() - cross0);
    m["sim.parallel.runahead_shard_epochs"] =
        static_cast<double>(ring.psim->runahead_shard_epochs() - runahead0);
    m["sim.parallel.ns_per_epoch"] = ratio(wall_ns, epochs);
    add_transport_metrics(counters_before, counters, m);
    m["alloc.per_KB"] = ratio(static_cast<double>(allocs1 - allocs0),
                              static_cast<double>(out.payload_bytes) / 1024.0);
  }
  return out;
}

double setup_only_ring(std::uint64_t seed) {
  const RingInputs& inputs = ring_inputs(seed);
  reset_telemetry();
  const std::int64_t t0 = now_ns();
  Ring ring(inputs, seed);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace perfbench
