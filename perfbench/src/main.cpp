// perfbench: the repository benchmark.
//
//   perfbench --workload <tower_bulk|tower_rpc_lossy|ring_sharded>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Repeats the workload, each repetition built afresh from the seed, until
// --seconds have passed, checks every repetition's outputs and that the
// deterministic ones repeat exactly, and prints one JSON object as its
// last line of output.  --trace 0 reports the end-to-end metrics, timed
// with tracing off; --trace 1 alternates untraced and traced repetitions
// and reports the per-layer metrics of the traced ones, and writes the
// spans of the last traced repetition to --out-dir.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "reference.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/traces";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (key == "--out-dir") {
      a.out_dir = v;
    } else {
      usage("unknown argument");
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of sorted samples.
double quantile_ms(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]) *
         1e-6;
}

/// Peak resident memory of this program image, from VmHWM.  (getrusage's
/// ru_maxrss would also count the launching process's memory from before
/// exec, which is inherited on Linux.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

using RunFn = RepResult (*)(std::uint64_t, bool);

struct Workload {
  const char* name;
  RunFn run;
  double (*setup)(std::uint64_t);
};

const Workload kWorkloads[] = {
    {"tower_bulk", run_tower_bulk,
     [](std::uint64_t seed) { return setup_only_tower(seed, false); }},
    {"tower_rpc_lossy", run_tower_rpc_lossy,
     [](std::uint64_t seed) { return setup_only_tower(seed, true); }},
    {"ring_sharded", run_ring_sharded, setup_only_ring},
};

/// Host time, made steady on a shared host whose speed changes by up to
/// 2x over seconds to minutes.  Each repetition is pinned to one CPU,
/// rotating over the CPUs, and bracketed by the reference kernel on that
/// CPU (reference.hpp).  Its host times are scaled to the reference's
/// nominal speed, and a run reports the median over its repetitions.
class HostClock {
 public:
  /// Call around each repetition; `end` returns the factor that turns the
  /// repetition's raw host times into reported ones.
  void begin(std::size_t rep) {
    cpu_ = rep;
    before_ = reference_here();
  }
  double end() {
    const double ref = 0.5 * (before_ + reference_here());
    unpin();
    return kReferenceNominalS / ref;
  }

 private:
  double reference_here() const {
    pin_to_cpu(cpu_);
    return reference_seconds();
  }

  std::size_t cpu_ = 0;
  double before_ = 0;
};

// Setup-only samples after each repetition: up to kSetupsPerRep, while
// they take under kSetupShare of the repetition's run time.
constexpr std::size_t kSetupsPerRep = 10;
constexpr double kSetupShare = 0.05;
constexpr std::size_t kMinUntraced = 3;
constexpr std::size_t kMinTraced = 2;
// Spans written out per traced run (the totals use all of them).
constexpr std::size_t kWrittenSpans = 200'000;

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Prints where the traced wall time went, seam by seam, and checks that
/// the self times add up to the root span exactly.
bool report_breakdown() {
  const auto totals = tracer().totals();
  const SeamTotals& root = totals[static_cast<std::size_t>(Seam::kRun)];
  if (root.calls == 0) return true;  // untraced
  std::int64_t sum = 0;
  std::printf("traced wall %.6f s, by seam (self time):\n",
              static_cast<double>(root.total_ns) * 1e-9);
  for (std::size_t i = 0; i < kSeamCount; ++i) {
    const SeamTotals& t = totals[i];
    sum += t.self_ns;
    if (t.calls == 0) continue;
    std::printf("  %-16s %10llu calls %12.6f s %6.2f%% %10llu allocs\n",
                seam_name(static_cast<Seam>(i)),
                static_cast<unsigned long long>(t.calls),
                static_cast<double>(t.self_ns) * 1e-9,
                100.0 * static_cast<double>(t.self_ns) /
                    static_cast<double>(root.total_ns),
                static_cast<unsigned long long>(t.self_allocs));
  }
  if (sum != root.total_ns) {
    std::fprintf(stderr, "perfbench: self times sum to %lld ns, root %lld ns\n",
                 static_cast<long long>(sum),
                 static_cast<long long>(root.total_ns));
    return false;
  }
  return true;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) usage("unknown workload");

  const std::int64_t t0 = now_ns();
  const auto elapsed = [t0] { return static_cast<double>(now_ns() - t0) * 1e-9; };

  // Host times, as HostClock reports them.
  HostClock clock;
  std::vector<double> setup;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced_reps;
  reference_seconds();  // the first call builds the kernel's buffers
  while (true) {
    const bool enough =
        untraced.size() >= kMinUntraced &&
        (!args.trace || traced_reps.size() >= kMinTraced);
    if (enough && elapsed() >= args.seconds) break;
    // In trace mode, alternate untraced and traced repetitions so both
    // see the same machine conditions.
    const bool traced_rep =
        args.trace && traced_reps.size() < untraced.size();
    const std::size_t index = untraced.size() + traced_reps.size();
    clock.begin(index);
    RepResult r = w->run(args.seed, traced_rep);
    // The fingerprint covers the latency samples; keep only the first
    // repetition's, so memory does not grow with the repetition count.
    if (!untraced.empty()) std::vector<std::int64_t>().swap(r.op_latency_ns);
    // Setup-only samples between repetitions, so setup_s is a median of
    // many taken under the same conditions as the runs.
    std::vector<double> setups = {r.setup_s};
    for (std::size_t i = 0; i < kSetupsPerRep &&
                            setups.size() * setups.back() <
                                kSetupShare * r.run_wall_s;
         ++i) {
      setups.push_back(w->setup(args.seed));
    }
    const double scale = clock.end();
    for (const double t : setups) setup.push_back(t * scale);
    std::printf("rep %zu%s: setup %.6f s, run %.6f s, %.3f MB/s (reported "
                "as %.3f), events %llu, failed %llu/%llu\n",
                index, traced_rep ? " (traced)" : "", r.setup_s, r.run_wall_s,
                static_cast<double>(r.payload_bytes) / r.run_wall_s * 1e-6,
                static_cast<double>(r.payload_bytes) / (r.run_wall_s * scale) *
                    1e-6,
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    if (traced_rep) {
      if (!report_breakdown()) return 3;
      std::filesystem::create_directories(args.out_dir);
      const std::string path = args.out_dir + "/" + args.workload + ".spans.tsv";
      if (!tracer().write(path, kWrittenSpans)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 3;
      }
      tracer().reset(false);
      // Per-layer times are host times too: report them on the same scale.
      for (const LayerMetric& lm : layer_metrics()) {
        if (std::strcmp(lm.unit, "ns") == 0) r.layer[lm.name] *= scale;
      }
      traced_wall.push_back(r.run_wall_s * scale);
      traced_reps.push_back(std::move(r));
    } else {
      untraced_wall.push_back(r.run_wall_s * scale);
      untraced.push_back(std::move(r));
    }
  }

  // Deterministic outputs must repeat bit for bit across every
  // repetition of the seed, traced or not.
  const std::uint64_t fp = untraced.front().fingerprint;
  for (const auto* reps : {&untraced, &traced_reps}) {
    for (const RepResult& r : *reps) {
      if (r.fingerprint != fp) {
        std::fprintf(stderr,
                     "perfbench: deterministic outputs differ between "
                     "repetitions of seed %llu\n",
                     static_cast<unsigned long long>(args.seed));
        return 4;
      }
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* reps : {&untraced, &traced_reps}) {
    for (const RepResult& r : *reps) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }

  const RepResult& first = untraced.front();
  std::vector<double> raw_wall;
  for (const RepResult& r : untraced) raw_wall.push_back(r.run_wall_s);
  std::printf("%s seed %llu: %zu untraced, %zu traced repetitions; run wall "
              "median %.6f s, reported %.6f s; %zu op latency samples; "
              "failed_frac %.6g\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              untraced.size(), traced_reps.size(), median(raw_wall),
              median(untraced_wall), first.op_latency_ns.size(),
              static_cast<double>(failed) / static_cast<double>(attempted));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"host_MBps",
         static_cast<double>(first.payload_bytes) /
             median(untraced_wall) * 1e-6,
         "MB/s"},
        {"sim_goodput_Mbps",
         first.sim_seconds > 0 ? static_cast<double>(first.payload_bytes) *
                                     8e-6 / first.sim_seconds
                               : 0,
         "Mb/s"},
        {"op_p50_ms", quantile_ms(first.op_latency_ns, 0.50), "ms"},
        {"op_p99_ms", quantile_ms(first.op_latency_ns, 0.99), "ms"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_MB", peak_rss_mb(), "MB"},
    };
  } else {
    for (const LayerMetric& lm : layer_metrics()) {
      std::vector<double> v;
      for (const RepResult& r : traced_reps) {
        const auto it = r.layer.find(lm.name);
        v.push_back(it == r.layer.end() ? 0 : it->second);
      }
      metrics.push_back({lm.name, median(v), lm.unit});
    }
    metrics.push_back(
        {"trace.overhead_frac", median(traced_wall) /
                 median(untraced_wall) - 1,
         "ratio"});
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
