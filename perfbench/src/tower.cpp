// The full-tower workloads: sublayered TCP hosts on R0 and R2 of a line of
// three routers, each hop a complete datalink tower (NRZI line code, HDLC
// stuffing, CRC-32, selective-repeat ARQ) over a sim::DuplexLink.
//
// The tower is wired here, the way tests/integration/full_stack_test.cpp
// does it, so every call from one layer into the next passes through a
// lambda this file owns, and the traced repetition times it there.
#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/frame_arena.hpp"
#include "common/rng.hpp"
#include "datalink/stack.hpp"
#include "netlayer/router.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"
#include "transport/sublayered/host.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace sublayer;

constexpr std::size_t kRouters = 3;
const TimePoint kWarmupEnd = TimePoint::from_ns(Duration::millis(500).ns());
const TimePoint kConvergeLimit = TimePoint::from_ns(Duration::seconds(5.0).ns());
constexpr std::size_t kEventBudget = 40'000'000;

// tower_bulk: one transfer, latency sampled per block of the stream.
constexpr std::size_t kBulkBytes = 8u << 20;
constexpr std::size_t kBulkBlock = 4096;

// tower_rpc_lossy: 16 closed-loop clients, 32 RPCs per connection.
constexpr std::size_t kRpcClients = 16;
constexpr std::size_t kRpcsPerConn = 32;
constexpr std::size_t kConnsPerClient = 32;
constexpr std::size_t kRpcsPerClient = kRpcsPerConn * kConnsPerClient;
constexpr std::size_t kRequestBytes = 128;
constexpr std::size_t kReplyBytes = 2048;
constexpr std::size_t kRpcPool = 64;  // distinct request/reply pairs
constexpr std::int64_t kRpcStartSpreadNs = 2'000'000;

netlayer::RouterConfig router_config() {
  netlayer::RouterConfig config;
  config.routing = netlayer::RoutingKind::kLinkState;
  // Wire impairments must not flap the control plane mid-run.
  config.neighbor.dead_interval = Duration::seconds(3600.0);
  return config;
}

sim::LinkConfig wire_config(bool lossy) {
  sim::LinkConfig wire;
  wire.bandwidth_bps = 1e9;
  wire.propagation_delay = Duration::micros(200);
  if (lossy) {
    wire.loss_rate = 0.005;
    wire.corrupt_rate = 0.005;
  }
  return wire;
}

/// Library defaults for every data-plane knob (batched_wire, fused), so
/// the benchmark follows whatever path users get by default.
datalink::StackConfig stack_config() {
  datalink::StackConfig dl;
  dl.arq_engine = "selective-repeat";
  dl.arq.rto = Duration::millis(10);
  dl.arq.window = 32;
  dl.arq.max_send_queue = 1 << 14;
  return dl;
}

/// One hop: two datalink endpoints across a duplex wire.
struct Hop {
  Hop(sim::Simulator& sim, const sim::LinkConfig& wire, Rng& rng,
      const datalink::StackConfig& dl)
      : link(sim, wire, rng, "wire"),
        a(sim, phy::make_nrzi(), datalink::make_crc32(), dl),
        b(sim, phy::make_nrzi(), datalink::make_crc32(), dl) {}
  sim::DuplexLink link;
  datalink::DatalinkEndpoint a;
  datalink::DatalinkEndpoint b;
};

/// Attaches endpoint `ep` to router `r`: the router's interface sink
/// sends down the tower, the endpoint's wire sink transmits on `tx`,
/// frames arriving on `rx` go up the tower, and the tower delivers into
/// the router.  Each hand-off runs inside its layer's span.
void attach(netlayer::Router& r, Seam router_seam,
            datalink::DatalinkEndpoint& ep, sim::Link& tx, sim::Link& rx,
            bool batched) {
  const int iface = r.add_interface([&ep](Bytes f) {
    traced(Seam::kDatalinkDown, [&] { ep.send(std::move(f)); });
  });
  ep.set_deliver([&r, iface, router_seam](Bytes f) {
    traced(router_seam, [&] { r.on_link_frame(iface, std::move(f)); });
  });
  if (batched) {
    ep.set_wire_batch_sink([&tx](sim::FrameBatch& b) {
      traced(Seam::kSimLink, [&] { tx.send_batch(std::move(b)); });
    });
    rx.set_batch_receiver([&ep](sim::FrameBatch& b) {
      traced(Seam::kDatalinkUp, [&] { ep.on_wire_batch(b); });
    });
  } else {
    ep.set_wire_sink([&tx](Bytes f) {
      traced(Seam::kSimLink, [&] { tx.send(std::move(f)); });
    });
    rx.set_receiver([&ep](Bytes f) {
      traced(Seam::kDatalinkUp, [&] { ep.on_wire_frame(std::move(f)); });
    });
  }
}

/// R0 - R1 - R2 over datalink towers, converged past the warm-up.
class Tower {
 public:
  Tower(std::uint64_t seed, bool lossy)
      : net(sim, router_config(), seed) {
    for (std::size_t i = 0; i < kRouters; ++i) net.add_router();
    Rng rng(seed ^ 0x11e5eedull);
    const bool batched = datalink::StackConfig{}.batched_wire;
    for (std::size_t i = 0; i + 1 < kRouters; ++i) {
      hops_.push_back(std::make_unique<Hop>(sim, wire_config(lossy), rng,
                                            stack_config()));
      Hop& h = *hops_.back();
      const auto left = static_cast<netlayer::RouterId>(i);
      const auto right = static_cast<netlayer::RouterId>(i + 1);
      attach(net.router(left), seam_of(left), h.a, h.link.a_to_b(),
             h.link.b_to_a(), batched);
      attach(net.router(right), seam_of(right), h.b, h.link.b_to_a(),
             h.link.a_to_b(), batched);
    }
    net.start();
    // The 500 ms warm-up, extended while a lossy wire still delays the
    // link-state flood.
    sim.run_until(kWarmupEnd);
    while (!net.fully_converged() && sim.now() < kConvergeLimit) {
      sim.run_until(sim.now() + Duration::millis(100));
    }
    if (!net.fully_converged()) {
      throw std::runtime_error("tower: routing did not converge");
    }
  }

  /// Sums over the four directional wires.
  sim::LinkStats link_totals() const {
    sim::LinkStats t;
    for (const auto& h : hops_) {
      for (const sim::Link* l : {&h->link.a_to_b(), &h->link.b_to_a()}) {
        t.frames_offered += l->stats().frames_offered;
        t.frames_delivered += l->stats().frames_delivered;
      }
    }
    return t;
  }

  sim::Simulator sim;
  netlayer::Network net;

 private:
  static Seam seam_of(netlayer::RouterId r) {
    return r == 0 || r + 1 == kRouters ? Seam::kTransportRx : Seam::kNetFwd;
  }

  std::vector<std::unique_ptr<Hop>> hops_;
};

/// Everything read at the start and end of the measured phase.
struct PhaseMark {
  Counters counters;
  sim::LinkStats links;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t arena_fresh = 0;
  std::uint64_t arena_recycled = 0;
};

PhaseMark mark(const Tower& t) {
  PhaseMark m;
  m.counters = telemetry::MetricsRegistry::instance().snapshot().counters;
  m.links = t.link_totals();
  m.events = t.sim.events_processed();
  m.allocs = alloc_count();
  const auto& arena = FrameArenaCounters::instance();
  m.arena_fresh = arena.fresh_total();
  m.arena_recycled = arena.recycled_total();
  return m;
}

/// Per-layer metrics of a traced tower repetition.
void tower_layer_metrics(const PhaseMark& a, const PhaseMark& b,
                         std::uint64_t payload_bytes, RepResult& out) {
  const auto totals = tracer().totals();
  const auto seam = [&totals](Seam s) -> const SeamTotals& {
    return totals[static_cast<std::size_t>(s)];
  };
  const double delivered =
      static_cast<double>(b.links.frames_delivered - a.links.frames_delivered);
  const double offered =
      static_cast<double>(b.links.frames_offered - a.links.frames_offered);
  const double events = static_cast<double>(b.events - a.events);
  const auto d = [&](const char* name) {
    return counter_delta(a.counters, b.counters, name);
  };
  auto& m = out.layer;
  m["datalink.up.ns_per_frame"] =
      ratio(static_cast<double>(seam(Seam::kDatalinkUp).self_ns), delivered);
  m["datalink.down.ns_per_frame"] =
      ratio(static_cast<double>(seam(Seam::kDatalinkDown).self_ns),
            static_cast<double>(seam(Seam::kDatalinkDown).calls));
  m["sim.link.ns_per_frame"] =
      ratio(static_cast<double>(seam(Seam::kSimLink).self_ns), offered);
  m["netlayer.fwd.ns_per_datagram"] =
      ratio(static_cast<double>(seam(Seam::kNetFwd).self_ns),
            static_cast<double>(seam(Seam::kNetFwd).calls));
  m["transport.rx.ns_per_segment"] =
      ratio(static_cast<double>(seam(Seam::kTransportRx).self_ns),
            static_cast<double>(seam(Seam::kTransportRx).calls));
  m["transport.tx.ns_per_call"] =
      ratio(static_cast<double>(seam(Seam::kTransportTx).self_ns),
            static_cast<double>(seam(Seam::kTransportTx).calls));
  m["sim.self_ns_per_event"] =
      ratio(static_cast<double>(seam(Seam::kRun).self_ns), events);
  m["sim.ns_per_event"] =
      ratio(static_cast<double>(seam(Seam::kRun).total_ns), events);
  m["sim.events"] = events;
  m["datalink.wire_frames"] = delivered;
  m["datalink.useful_frac"] = ratio(d("datalink.stack.frames_up"), delivered);
  m["datalink.arq.retransmissions"] = d("datalink.arq.retransmissions");
  m["datalink.up_failures"] = d("datalink.phy.decode_failures") +
                              d("datalink.framing.deframe_failures") +
                              d("datalink.errordetect.checksum_failures");
  add_transport_metrics(a.counters, b.counters, m);
  m["datalink.allocs_per_frame"] =
      ratio(static_cast<double>(seam(Seam::kDatalinkUp).self_allocs +
                                seam(Seam::kDatalinkDown).self_allocs),
            delivered);
  const double fresh = static_cast<double>(b.arena_fresh - a.arena_fresh);
  const double recycled =
      static_cast<double>(b.arena_recycled - a.arena_recycled);
  m["datalink.arena.recycled_frac"] = ratio(recycled, fresh + recycled);
  m["alloc.per_KB"] =
      ratio(static_cast<double>(b.allocs - a.allocs),
            static_cast<double>(payload_bytes) / 1024.0);
}

/// Runs the simulator until `done()` or the event budget is spent.
template <typename Done>
void drive(sim::Simulator& sim, const Done& done) {
  std::size_t processed = 0;
  while (!done() && processed < kEventBudget) {
    const std::size_t n = sim.run(256);
    if (n == 0) break;
    processed += n;
  }
}

/// Opens the measured phase: telemetry marks, tracing, allocation
/// counting and the root span.  `end` closes it and fills the result.
class Phase {
 public:
  Phase(const Tower& t, bool traced) : tower_(t), traced_(traced) {
    tracer().reset(traced);
    start_ = mark(t);
    set_alloc_counting(traced);
    if (traced) root_ = tracer().open(Seam::kRun);
    wall0_ = now_ns();
  }

  void end(RepResult& out) {
    const std::int64_t wall1 = now_ns();
    if (traced_) {
      tracer().close(root_);
      tracer().stop();
    }
    set_alloc_counting(false);
    const PhaseMark stop = mark(tower_);
    out.run_wall_s = static_cast<double>(wall1 - wall0_) * 1e-9;
    out.events = stop.events - start_.events;
    if (traced_) tower_layer_metrics(start_, stop, out.payload_bytes, out);
    out.fingerprint = fingerprint(out, stop.counters);
  }

 private:
  const Tower& tower_;
  bool traced_;
  PhaseMark start_;
  std::uint32_t root_ = 0;
  std::int64_t wall0_ = 0;
};

const Bytes& bulk_payload(std::uint64_t seed) {
  static std::uint64_t cached_seed = 0;
  static Bytes payload;
  if (payload.empty() || cached_seed != seed) {
    Rng rng(seed ^ 0xb01cull);
    payload = rng.next_bytes(kBulkBytes);
    cached_seed = seed;
  }
  return payload;
}

struct RpcInputs {
  std::vector<Bytes> requests;  // requests[i][0] == i
  std::vector<Bytes> replies;
  std::vector<std::int64_t> start_offset_ns;        // per client
  std::vector<std::vector<std::uint8_t>> plan;      // per client, per RPC
};

const RpcInputs& rpc_inputs(std::uint64_t seed) {
  static std::uint64_t cached_seed = 0;
  static RpcInputs in;
  if (in.requests.empty() || cached_seed != seed) {
    Rng rng(seed ^ 0x49c5ull);
    in = RpcInputs{};
    for (std::size_t i = 0; i < kRpcPool; ++i) {
      in.requests.push_back(rng.next_bytes(kRequestBytes));
      in.requests.back()[0] = static_cast<std::uint8_t>(i);
      in.replies.push_back(rng.next_bytes(kReplyBytes));
    }
    for (std::size_t c = 0; c < kRpcClients; ++c) {
      in.start_offset_ns.push_back(rng.next_in(0, kRpcStartSpreadNs));
      std::vector<std::uint8_t> p(kRpcsPerClient);
      for (auto& idx : p) {
        idx = static_cast<std::uint8_t>(rng.next_below(kRpcPool));
      }
      in.plan.push_back(std::move(p));
    }
    cached_seed = seed;
  }
  return in;
}

}  // namespace

RepResult run_tower_bulk(std::uint64_t seed, bool traced_rep) {
  const Bytes& payload = bulk_payload(seed);
  reset_telemetry();
  RepResult out;
  const std::int64_t setup0 = now_ns();
  Tower tower(seed, /*lossy=*/false);
  transport::TcpHost client(tower.sim, tower.net.router(0), 1);
  transport::TcpHost server(tower.sim, tower.net.router(kRouters - 1), 1);

  std::size_t received = 0;
  bool mismatch = false;
  TimePoint connected_at;
  TimePoint last_byte_at;
  std::vector<std::int64_t> latency;
  latency.reserve(kBulkBytes / kBulkBlock);
  server.listen(80, [&](transport::Connection& c) {
    transport::Connection::AppCallbacks cb;
    cb.on_data = [&](Bytes d) {
      traced(Seam::kApp, [&] {
        if (received + d.size() > payload.size() ||
            std::memcmp(d.data(), payload.data() + received, d.size()) != 0) {
          mismatch = true;
        }
        received += d.size();
        const TimePoint now = tower.sim.now();
        while ((latency.size() + 1) * kBulkBlock <= received) {
          latency.push_back((now - connected_at).ns());
        }
        last_byte_at = now;
      });
    };
    c.set_app_callbacks(cb);
  });
  out.setup_s = static_cast<double>(now_ns() - setup0) * 1e-9;

  Phase phase(tower, traced_rep);
  connected_at = tower.sim.now();
  transport::Connection* conn = nullptr;
  traced(Seam::kTransportOpen,
         [&] { conn = &client.connect(server.addr(), 80); });
  traced(Seam::kTransportTx, [&] { conn->send(payload); });
  traced(Seam::kTransportClose, [&] { conn->close(); });
  drive(tower.sim, [&] { return received >= payload.size(); });

  out.attempted = 1;
  const bool ok = received == payload.size() && !mismatch;
  out.failed = ok ? 0 : 1;
  out.payload_bytes = ok ? received : 0;
  out.sim_seconds = (last_byte_at - connected_at).to_seconds();
  out.op_latency_ns = latency;
  phase.end(out);
  return out;
}

RepResult run_tower_rpc_lossy(std::uint64_t seed, bool traced_rep) {
  const RpcInputs& rpc = rpc_inputs(seed);
  reset_telemetry();
  RepResult out;
  const std::int64_t setup0 = now_ns();
  Tower tower(seed, /*lossy=*/true);
  transport::TcpHost client_host(tower.sim, tower.net.router(0), 1);
  transport::TcpHost server_host(tower.sim, tower.net.router(kRouters - 1),
                                 1);

  // Server: answer each 128 B request with the reply its index names.
  std::uint64_t bad_requests = 0;
  server_host.listen(80, [&](transport::Connection& c) {
    auto buf = std::make_shared<Bytes>();
    transport::Connection::AppCallbacks cb;
    transport::Connection* conn = &c;
    cb.on_data = [&, buf, conn](Bytes d) {
      traced(Seam::kApp, [&] {
        buf->insert(buf->end(), d.begin(), d.end());
        while (buf->size() >= kRequestBytes) {
          const std::size_t idx = (*buf)[0] % kRpcPool;
          if (!std::equal(buf->begin(), buf->begin() + kRequestBytes,
                          rpc.requests[idx].begin())) {
            ++bad_requests;
          }
          buf->erase(buf->begin(), buf->begin() + kRequestBytes);
          traced(Seam::kTransportTx, [&] { conn->send(rpc.replies[idx]); });
        }
      });
    };
    cb.on_stream_end = [conn] {
      traced(Seam::kTransportClose, [conn] { conn->close(); });
    };
    c.set_app_callbacks(cb);
  });
  out.setup_s = static_cast<double>(now_ns() - setup0) * 1e-9;

  struct Client {
    transport::Connection* conn = nullptr;
    std::size_t done = 0;       // RPCs answered
    std::size_t got = 0;        // reply bytes of the RPC in flight
    bool reply_ok = true;
    TimePoint sent_at;
  };
  std::vector<Client> clients(kRpcClients);
  std::size_t finished_clients = 0;
  std::uint64_t verified = 0;
  TimePoint first_start = TimePoint::from_ns(INT64_MAX);
  TimePoint last_reply;
  std::vector<std::int64_t> latency;
  latency.reserve(kRpcClients * kRpcsPerClient);

  const auto send_request = [&](std::size_t c) {
    Client& cl = clients[c];
    cl.got = 0;
    cl.reply_ok = true;
    cl.sent_at = tower.sim.now();
    const Bytes& req = rpc.requests[rpc.plan[c][cl.done]];
    traced(Seam::kTransportTx, [&] { cl.conn->send(req); });
  };
  std::function<void(std::size_t)> open;
  const auto on_reply = [&](std::size_t c, const Bytes& d) {
    Client& cl = clients[c];
    const Bytes& want = rpc.replies[rpc.plan[c][cl.done]];
    if (cl.got + d.size() > want.size() ||
        std::memcmp(d.data(), want.data() + cl.got, d.size()) != 0) {
      cl.reply_ok = false;
    }
    cl.got += d.size();
    if (cl.got < want.size()) return;
    const TimePoint now = tower.sim.now();
    latency.push_back((now - cl.sent_at).ns());
    last_reply = now;
    if (cl.reply_ok) ++verified;
    ++cl.done;
    if (cl.done == kRpcsPerClient) {
      traced(Seam::kTransportClose, [&] { cl.conn->close(); });
      ++finished_clients;
    } else if (cl.done % kRpcsPerConn == 0) {
      // Reconnect from a fresh event, outside the old connection's
      // callback stack.
      traced(Seam::kTransportClose, [&] { cl.conn->close(); });
      cl.conn = nullptr;
      tower.sim.schedule(Duration::nanos(0), [&open, c] { open(c); });
    } else {
      send_request(c);
    }
  };
  open = [&](std::size_t c) {
    Client& cl = clients[c];
    traced(Seam::kTransportOpen, [&] {
      cl.conn = &client_host.connect(server_host.addr(), 80);
    });
    transport::Connection::AppCallbacks cb;
    cb.on_data = [&on_reply, c](Bytes d) {
      traced(Seam::kApp, [&] { on_reply(c, d); });
    };
    cl.conn->set_app_callbacks(cb);
    send_request(c);
  };

  Phase phase(tower, traced_rep);
  for (std::size_t c = 0; c < kRpcClients; ++c) {
    const TimePoint at =
        tower.sim.now() + Duration::nanos(rpc.start_offset_ns[c]);
    first_start = std::min(first_start, at);
    tower.sim.schedule_at(at, [&open, c] { open(c); });
  }
  drive(tower.sim, [&] { return finished_clients == kRpcClients; });

  out.attempted = kRpcClients * kRpcsPerClient;
  const std::uint64_t good =
      bad_requests > verified ? 0 : verified - bad_requests;
  out.failed = out.attempted - std::min<std::uint64_t>(good, out.attempted);
  out.payload_bytes = good * (kRequestBytes + kReplyBytes);
  out.sim_seconds = (last_reply - first_start).to_seconds();
  std::sort(latency.begin(), latency.end());
  out.op_latency_ns = std::move(latency);
  phase.end(out);
  return out;
}

double setup_only_tower(std::uint64_t seed, bool lossy) {
  reset_telemetry();
  const std::int64_t t0 = now_ns();
  Tower tower(seed, lossy);
  transport::TcpHost client(tower.sim, tower.net.router(0), 1);
  transport::TcpHost server(tower.sim, tower.net.router(kRouters - 1), 1);
  server.listen(80, [](transport::Connection&) {});
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace perfbench
