// In-memory span tracing and allocation counting for the traced runs.
//
// The benchmark owns every seam between the layers it wires together
// (router interface sinks, link senders and receivers, endpoint delivery,
// the application's calls into a connection), so it times each layer from
// outside the library: a span opens before the call into the layer and
// closes when the call returns.  Spans nest through a stack, so a layer's
// self time is its span's duration minus the spans of the calls it made
// into other layers while it ran.  The root span covers the measured phase
// of a repetition; its self time is the engine plus timer callbacks.
//
// Tracing is single-threaded: it is used only on the simulators that run
// on the calling thread.  Allocation counting is process-wide and atomic.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Seam : std::uint8_t {
  kRun,             // root: the measured phase (engine + timers residual)
  kDatalinkDown,    // DatalinkEndpoint::send from a router interface sink
  kDatalinkUp,      // DatalinkEndpoint::on_wire_frame from a link receiver
  kSimLink,         // Link::send from an endpoint's wire sink
  kNetFwd,          // Router::on_link_frame at a transit router
  kTransportRx,     // Router::on_link_frame at an edge router
  kTransportTx,     // Connection::send
  kTransportOpen,   // TcpHost::connect
  kTransportClose,  // Connection::close
  kApp,             // the benchmark's own application callbacks
};
inline constexpr std::size_t kSeamCount = 10;
const char* seam_name(Seam s);

/// Heap allocations made through global operator new since process start,
/// counted only while counting is switched on (traced repetitions).
std::uint64_t alloc_count();
void set_alloc_counting(bool on);

std::int64_t now_ns();

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs_end = 0;
  /// Operation id: every span reached from one call out of the root (one
  /// event's entry into the stack) shares the id of that outermost span.
  std::uint64_t op = 0;
  std::uint32_t parent = 0;
  Seam seam = Seam::kRun;
};

struct SeamTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t self_allocs = 0;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  bool on() const { return on_; }
  /// Starts a fresh recording (on) or disables recording (off).
  void reset(bool on);
  /// Stops recording and keeps the spans for totals() and write().
  void stop() { on_ = false; }

  std::uint32_t open(Seam s);
  void close(std::uint32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per-seam call counts, inclusive and self time, self allocations.
  std::array<SeamTotals, kSeamCount> totals() const;
  /// Writes the first `max_spans` spans as tab-separated rows, after a
  /// comment line with the total count; false on I/O failure.
  bool write(const std::string& path, std::size_t max_spans) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t next_op_ = 0;
};

Tracer& tracer();

/// Runs `f` inside a span for `seam` when tracing is on.
template <typename F>
inline void traced(Seam seam, F&& f) {
  Tracer& t = tracer();
  if (!t.on()) {
    f();
    return;
  }
  const std::uint32_t index = t.open(seam);
  f();
  t.close(index);
}

}  // namespace perfbench
