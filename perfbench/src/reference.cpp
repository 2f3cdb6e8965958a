#include "reference.hpp"

#include <sched.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "trace.hpp"

namespace perfbench {
namespace {

// A mix shaped like the tower's data path: per-frame heap churn, bit-run
// scanning (stuffing), a table-driven CRC (error detection), an indirect
// call per frame (sublayer dispatch), and copies through a working set of
// several MiB.
constexpr std::size_t kWorkingSet = 4u << 20;
constexpr std::size_t kFrame = 1500;
constexpr std::size_t kStride = 8 * kFrame;

std::array<std::uint32_t, 256> crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

struct Buffers {
  std::vector<std::uint8_t> src;
  std::vector<std::uint8_t> dst;
  std::array<std::uint32_t, 256> crc = crc_table();
  Buffers() : src(kWorkingSet), dst(kWorkingSet) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto& b : src) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<std::uint8_t>(x);
    }
  }
};

// Keeps the kernel's result observable, so none of it is optimized away.
volatile std::uint32_t g_sink = 0;

cpu_set_t& allowed_cpus() {
  static cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof s, &s) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    return s;
  }();
  return set;
}

}  // namespace

double reference_seconds() {
  static Buffers buf;
  const std::vector<std::function<std::uint32_t(std::uint32_t)>> stages = {
      [](std::uint32_t v) { return v * 2654435761u; },
      [](std::uint32_t v) { return v ^ (v >> 15); },
  };
  const std::int64_t t0 = now_ns();
  std::uint32_t acc = 0;
  for (std::size_t off = 0; off + kFrame <= kWorkingSet; off += kStride) {
    auto frame = std::make_unique<std::vector<std::uint8_t>>(
        buf.src.begin() + static_cast<std::ptrdiff_t>(off),
        buf.src.begin() + static_cast<std::ptrdiff_t>(off + kFrame));
    std::uint32_t crc = 0xFFFFFFFFu;
    int ones = 0;
    for (const std::uint8_t b : *frame) {
      crc = buf.crc[(crc ^ b) & 0xFF] ^ (crc >> 8);
      for (int k = 0; k < 8; ++k) {
        if ((b >> k) & 1) {
          if (++ones == 5) {
            ++acc;
            ones = 0;
          }
        } else {
          ones = 0;
        }
      }
    }
    acc = stages[crc & 1](acc ^ crc);
    std::memcpy(buf.dst.data() + off, frame->data(), frame->size());
  }
  std::memcpy(buf.dst.data(), buf.src.data(), kWorkingSet);
  g_sink = acc + buf.dst[acc % kWorkingSet];
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::size_t cpu_count() {
  return static_cast<std::size_t>(CPU_COUNT(&allowed_cpus()));
}

void pin_to_cpu(std::size_t index) {
  const cpu_set_t& all = allowed_cpus();
  std::size_t seen = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &all)) continue;
    if (seen++ != index % cpu_count()) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
    return;
  }
}

void unpin() {
  if (sched_setaffinity(0, sizeof(cpu_set_t), &allowed_cpus()) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

}  // namespace perfbench
