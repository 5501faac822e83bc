//===- perfbench/src/Workloads.h - The workloads ----------------*- C++ -*-===//
//
// Part of relc's benchmark (perfbench/README.md).
//
// Each workload runs its set-up, measures for Args::Seconds in whole
// rounds, checks every output, and fills an Outcome with the end-to-end
// metrics (setup_s, p10_ms, per_s, peak_rss_mib). The traced run
// (--trace 1) is one routine for every workload: it walks every layer and
// reports every per-layer metric.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace pb {

Outcome runColdCertify(const Args &A);
Outcome runWarmCertify(const Args &A);
Outcome runDaemonMixed(const Args &A);
Outcome runGeneratedCode(const Args &A);
Outcome runTraced(const Args &A);

/// Feeds each correctness check one corrupted output; true iff every
/// check refuses its corruption (and accepts the uncorrupted original).
bool runSelfTest(const Args &A);

/// Seconds since the process was spawned (Args::T0Ns).
double setupSeconds(const Args &A);

/// The long-lived warm cache: the suite's entries plus, per program,
/// kWarmPastBuilds entries left by past compiler builds (none with
/// Args::SuiteOnlyCache). It is kept under StateDir per build of the
/// binary. run.py builds it with --prepare, in a process of its own before
/// the measured one, so no run's set-up time includes it; building it also
/// removes the caches of earlier builds. Sets \p Dir to it. With \p Build
/// false, a missing cache is an error. Returns false with \p Why on failure.
bool warmCache(const Args &A, bool Build, std::string *Dir, std::string *Why);
constexpr unsigned kWarmPastBuilds = 300;

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
