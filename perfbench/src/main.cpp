//===- perfbench/src/main.cpp - relc's benchmark binary -------------------===//
//
// Part of relc's benchmark (perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --relcd <path> --state-dir <dir> --work-dir <dir>
//             [--t0-ns <ns>] [--suite-only-cache] [--self-test]
//   perfbench --prepare --state-dir <dir> --work-dir <dir> [--suite-only-cache]
//
// perfbench/run.py builds this binary and passes the paths; run that
// instead. The last stdout line is the JSON result.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

using namespace pb;

int main(int argc, char **argv) {
  Args A;
  A.T0Ns = monoNs();
  std::string WorkDir;
  for (int I = 1; I < argc; ++I) {
    std::string F = argv[I];
    if (F == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (F == "--prepare") {
      A.Prepare = true;
      continue;
    }
    if (F == "--suite-only-cache") {
      A.SuiteOnlyCache = true;
      continue;
    }
    if (I + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", F.c_str());
      return 2;
    }
    std::string V = argv[++I];
    if (F == "--workload")
      A.Workload = V;
    else if (F == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (F == "--seconds")
      A.Seconds = unsigned(std::strtoul(V.c_str(), nullptr, 10));
    else if (F == "--trace")
      A.Trace = V == "1";
    else if (F == "--relcd")
      A.Relcd = V;
    else if (F == "--state-dir")
      A.StateDir = V;
    else if (F == "--work-dir")
      WorkDir = V;
    else if (F == "--t0-ns")
      A.T0Ns = std::strtoll(V.c_str(), nullptr, 10);
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", F.c_str());
      return 2;
    }
  }
  if ((A.Relcd.empty() && !A.Prepare) || A.StateDir.empty() ||
      WorkDir.empty()) {
    std::fprintf(stderr, "perfbench: --relcd, --state-dir and --work-dir "
                         "are required (run perfbench/run.py)\n");
    return 2;
  }
  // Everything the run writes (caches, the daemon's socket) is relative
  // to its own work directory.
  if (::chdir(WorkDir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot enter %s\n", WorkDir.c_str());
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  if (A.Prepare) {
    const Clock::time_point T0 = Clock::now();
    std::string Dir, Why;
    if (!warmCache(A, true, &Dir, &Why)) {
      std::fprintf(stderr, "perfbench: warm cache: %s\n", Why.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: warm cache ready (%zu files) in %.2f s\n",
                 countFiles(Dir), msSince(T0) / 1000.0);
    return 0;
  }
  if (A.SelfTest)
    return runSelfTest(A) ? 0 : 1;

  Outcome O;
  if (A.Trace && (A.Workload == "cold-certify" ||
                  A.Workload == "warm-certify" ||
                  A.Workload == "daemon-mixed" ||
                  A.Workload == "generated-code"))
    O = runTraced(A);
  else if (A.Workload == "cold-certify")
    O = runColdCertify(A);
  else if (A.Workload == "warm-certify")
    O = runWarmCertify(A);
  else if (A.Workload == "daemon-mixed")
    O = runDaemonMixed(A);
  else if (A.Workload == "generated-code")
    O = runGeneratedCode(A);
  else {
    std::fprintf(stderr,
                 "perfbench: unknown workload '%s' (cold-certify, "
                 "warm-certify, daemon-mixed, generated-code)\n",
                 A.Workload.c_str());
    return 2;
  }
  printOutcome(A, O);
  return 0;
}
