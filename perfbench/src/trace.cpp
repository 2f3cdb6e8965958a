#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* seam_name(Seam s) {
  static constexpr const char* kNames[kSeamCount] = {
      "run",           "datalink.down",   "datalink.up",
      "sim.link",      "netlayer.fwd",    "transport.rx",
      "transport.tx",  "transport.open",  "transport.close",
      "app",
  };
  return kNames[static_cast<std::size_t>(s)];
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::reset(bool on) {
  on_ = on;
  spans_.clear();
  stack_.clear();
  next_op_ = 0;
  if (on) spans_.reserve(1 << 20);
}

std::uint32_t Tracer::open(Seam s) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  Span span;
  span.seam = s;
  if (stack_.empty()) {
    span.parent = kNoParent;
  } else {
    span.parent = stack_.back();
    const Span& parent = spans_[span.parent];
    span.op = parent.parent == kNoParent ? ++next_op_ : parent.op;
  }
  stack_.push_back(index);
  // Read the counters last so the bookkeeping above is not charged to
  // the span (the vector growth it may cause is, once per doubling).
  span.allocs_start = alloc_count();
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void Tracer::close(std::uint32_t index) {
  Span& span = spans_[index];
  span.end_ns = now_ns();
  span.allocs_end = alloc_count();
  stack_.pop_back();
}

std::array<SeamTotals, kSeamCount> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  std::vector<std::uint64_t> child_allocs(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    child_ns[s.parent] += s.end_ns - s.start_ns;
    child_allocs[s.parent] += s.allocs_end - s.allocs_start;
  }
  std::array<SeamTotals, kSeamCount> out{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SeamTotals& t = out[static_cast<std::size_t>(s.seam)];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    t.self_allocs += (s.allocs_end - s.allocs_start) - child_allocs[i];
  }
  return out;
}

bool Tracer::write(const std::string& path, std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::min(max_spans, spans_.size());
  std::fprintf(f, "# %zu of %zu spans\n", n, spans_.size());
  std::fprintf(f, "index\tparent\top\tseam\tstart_ns\tend_ns\tallocs\n");
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%lld\t%lld\t%llu\n", i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op), seam_name(s.seam),
                 static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base),
                 static_cast<unsigned long long>(s.allocs_end - s.allocs_start));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

// Counting replacements for the global allocation functions.  They count
// only while a traced repetition runs; otherwise they cost one relaxed
// load over the default implementation.  The array and nothrow forms of
// the standard library forward to these.  noinline: once inlined into a
// new-expression, GCC pairs the visible malloc with the sized delete and
// raises a bogus -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(std::size_t n) {
  if (perfbench::g_counting.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
