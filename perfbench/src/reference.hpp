// The same-run speed reference for host time.
//
// The benchmark runs on shared hosts whose speed changes by up to 2x over
// seconds to minutes as other tenants load the machine, while one busy
// thread sees almost none of it as steal time: it is all user time.  So
// each repetition is bracketed by a fixed reference kernel timed right
// before and after it on the same CPU, and host time is reported at the
// reference's nominal speed: a repetition that took k times the reference
// kernel's time counts as k * kReferenceNominalS seconds.
//
// The kernel is the benchmark's own code and must never change: changing
// it, or kReferenceNominalS, re-bases host_MBps.
#pragma once

#include <cstddef>

namespace perfbench {

/// The reference kernel's time on an idle 4-core KVM guest (Intel Xeon),
/// where the benchmark was written.  A display scale only: it cancels in
/// every comparison between two runs of the benchmark.
inline constexpr double kReferenceNominalS = 0.030;

/// Runs the reference kernel once on the calling thread; host seconds.
double reference_seconds();

/// Pins the calling thread (and threads it starts later) to one of the
/// CPUs it may run on, or back to all of them.  Rotating repetitions
/// across the CPUs keeps one slow virtual CPU from deciding a whole run.
std::size_t cpu_count();
void pin_to_cpu(std::size_t index);
void unpin();

}  // namespace perfbench
