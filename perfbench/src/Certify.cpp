//===- perfbench/src/Certify.cpp - cold-certify and warm-certify ----------===//
//
// Part of relc's benchmark (perfbench/README.md).
//
// Both workloads certify the seven-program suite end to end through
// service::certify, in rounds of three serial (Jobs=1) certifies, which are
// gated, and one parallel (Jobs = core count) certify, which is checked;
// each runs over a freshly seeded program order.
// cold-certify gives every certify an empty cache directory, so every
// layer does its full work; warm-certify certifies against a populated
// long-lived cache, so only compile, hashing, cache lookup and the binary
// certificate read run.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "programs/Programs.h"

#include <cstdio>
#include <filesystem>

#include <sys/stat.h>
#include <unistd.h>

using namespace relc;

namespace pb {

namespace {

/// Checks one suite response: every requested program answered once,
/// certified, with the expected provenance and reference bytes, and the
/// expected cache traffic.
void checkSuite(const service::Response &Resp,
                const std::vector<std::string> &Order,
                const std::vector<RefCert> &Refs, service::Provenance From,
                unsigned WantHits, unsigned WantStores, Outcome &O) {
  O.Attempted += Order.size();
  if (Resp.Programs.size() != Order.size()) {
    for (size_t I = 0; I < Order.size(); ++I)
      O.failed("suite certify answered " +
               std::to_string(Resp.Programs.size()) + " of " +
               std::to_string(Order.size()) + " programs");
    return;
  }
  for (size_t I = 0; I < Order.size(); ++I) {
    const service::ProgramReply &P = Resp.Programs[I];
    if (P.Status != service::ProgramStatus::Certified) {
      O.failed(P.Name + ": " + service::statusName(P.Status) + " " + P.Error);
      continue;
    }
    std::string Why;
    const RefCert *Ref = findRef(Refs, Order[I]);
    if (!Ref || !replyMatches(P, *Ref, From, &Why))
      O.wrong(Ref ? Why : "no reference for " + Order[I]);
  }
  const pipeline::CacheStats &CS = Resp.Stats.Cache;
  if (CS.Hits != WantHits || CS.Stores != WantStores)
    O.wrong("cache traffic " + std::to_string(CS.Hits) + " hits / " +
            std::to_string(CS.Stores) + " stores, expected " +
            std::to_string(WantHits) + " / " + std::to_string(WantStores));
}

service::Response certifySuite(const std::vector<std::string> &Order,
                               unsigned Jobs, const std::string &CacheDir,
                               double *Ms) {
  service::Request Req;
  Req.Programs = Order;
  Req.Jobs = Jobs;
  Req.CacheDir = CacheDir;
  Clock::time_point T0 = Clock::now();
  service::Response Resp = service::certify(Req);
  *Ms = msSince(T0);
  return Resp;
}

void addSuiteMetrics(const Args &A, double Setup,
                     const std::vector<double> &Serial,
                     const std::vector<double> &Par, Outcome &O) {
  // p10: the time of one suite certify when the shared host is not
  // contended (README: slow host periods make per-run medians flip). The
  // parallel certifies are checked and reported, not gated: their speed-up
  // depends on how many of the host's cores are free.
  const double P10 = quantile(Serial, 0.1);
  O.add("setup_s", Setup, "s");
  O.add("p10_ms", P10, "ms");
  O.add("per_s", 1000.0 * double(suiteNames().size()) / P10, "1/s");
  O.add("peak_rss_mib", selfPeakRssMib(), "MiB");
  const double Tail = tailQuantile(Serial.size(), 0.9);
  std::fprintf(stderr,
               "perfbench %s: %zu serial + %zu parallel (Jobs=%u) suite "
               "certifies; serial p50 %.3f ms, p%.0f %.3f ms; parallel p10 "
               "%.3f ms, p50 %.3f ms\n",
               A.Workload.c_str(), Serial.size(), Par.size(), coreCount(),
               median(Serial), 100 * Tail, quantile(Serial, Tail),
               quantile(Par, 0.1), median(Par));
}

} // namespace

double setupSeconds(const Args &A) {
  return double(monoNs() - A.T0Ns) / 1e9;
}

bool warmCache(const Args &A, bool Build, std::string *Dir,
               std::string *Why) {
  namespace fs = std::filesystem;
  // One cache per build of this binary, then only read: runs never store
  // into it (the warm-up pass checks that every lookup hits).
  struct stat St {};
  ::stat("/proc/self/exe", &St);
  const std::string BuildPrefix =
      "warm-cache-" + std::to_string(uint64_t(St.st_size)) + "-" +
      std::to_string(uint64_t(St.st_mtime)) + "-";
  const unsigned Extra = A.SuiteOnlyCache ? 0 : kWarmPastBuilds;
  *Dir = A.StateDir + "/" + BuildPrefix + std::to_string(Extra);
  std::error_code EC;
  if (fs::exists(*Dir + ".done", EC))
    return true;
  if (!Build) {
    *Why = "no warm cache at " + *Dir + " (run.py builds it with --prepare)";
    return false;
  }
  // Earlier builds' caches, and debris of preparations cut short.
  for (const fs::directory_entry &E : fs::directory_iterator(A.StateDir, EC)) {
    const std::string Name = E.path().filename().string();
    if (Name.rfind("warm-cache-", 0) == 0 &&
        (Name.rfind(BuildPrefix, 0) != 0 ||
         Name.find(".tmp-") != std::string::npos))
      fs::remove_all(E.path(), EC);
  }
  const std::string Tmp = *Dir + ".tmp-" + std::to_string(::getpid());
  removeTree(Tmp);
  // The suite's own entries, certified into the cache.
  service::Request Req;
  Req.CacheDir = Tmp;
  Req.Jobs = coreCount();
  if (service::certify(Req).Exit != 0) {
    *Why = "certifying the suite into the warm cache";
    return false;
  }
  // Entries are addressed by content (model, spec, emitted code), and a
  // new options set overwrites a program's entry in place; what a
  // long-lived cache accumulates is entries whose emitted code came from
  // earlier compiler builds. Those are the suite's entries under fixed
  // stand-ins for past code hashes.
  pipeline::CertCache Cache(Tmp);
  SeedRng R(0xcac4e);
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    core::Compiler C;
    Result<core::CompileResult> CR = C.compileFn(P.Model, P.Spec, P.Hints);
    if (!CR) {
      *Why = P.Name + ": compile failed";
      return false;
    }
    validate::ValidationOptions VO = P.VOpts;
    VO.Hints = P.Hints;
    pipeline::CertKey Key =
        pipeline::certKeyFor(P.Model, P.Hints, P.Spec, CR->Fn);
    std::optional<pipeline::CertEntry> E = Cache.lookup(
        Key, pipeline::optionsHashFor(VO, pipeline::PipelineOptions{}));
    if (!E) {
      *Why = P.Name + ": the suite's warm-cache entry is missing";
      return false;
    }
    for (unsigned K = 0; K < Extra; ++K) {
      pipeline::CertKey Past = Key;
      Past.CodeHash = R.next();
      if (!Cache.store(Past, *E)) {
        *Why = "storing a past build's entry";
        return false;
      }
    }
  }
  removeTree(*Dir); // Debris of a preparation cut short before ".done".
  fs::rename(Tmp, *Dir, EC);
  if (EC) {
    *Why = "installing the warm cache: " + EC.message();
    return false;
  }
  if (std::FILE *F = std::fopen((*Dir + ".done").c_str(), "w"))
    std::fclose(F);
  return true;
}

Outcome runColdCertify(const Args &A) {
  Outcome O;
  std::vector<RefCert> Refs;
  std::string Why;
  if (!buildReference(&Refs, &Why)) {
    O.Attempted = 1;
    O.wrong(Why);
    return O;
  }
  const double Setup = setupSeconds(A);

  SeedRng R(A.Seed);
  const std::vector<std::string> Names = suiteNames();
  const unsigned J = coreCount();
  std::vector<double> Serial, Par;
  const Clock::time_point End = Clock::now() + std::chrono::seconds(A.Seconds);
  for (unsigned Round = 0; Round == 0 || Clock::now() < End; ++Round) {
    for (unsigned Jobs : {1u, 1u, 1u, J}) {
      std::vector<std::string> Order = Names;
      R.shuffle(Order);
      // A fresh, empty cache per certify: every layer runs, every verdict
      // is stored.
      std::string Dir = "cold-cache-" + std::to_string(Jobs);
      removeTree(Dir);
      double Ms = 0;
      service::Response Resp = certifySuite(Order, Jobs, Dir, &Ms);
      (Jobs == 1 ? Serial : Par).push_back(Ms);
      checkSuite(Resp, Order, Refs, service::Provenance::Live, 0,
                 unsigned(Order.size()), O);
      removeTree(Dir);
    }
  }
  addSuiteMetrics(A, Setup, Serial, Par, O);
  return O;
}

Outcome runWarmCertify(const Args &A) {
  Outcome O;
  std::vector<RefCert> Refs;
  std::string Why;
  std::string Dir;
  if (!buildReference(&Refs, &Why) || !warmCache(A, false, &Dir, &Why)) {
    O.Attempted = 1;
    O.wrong(Why);
    return O;
  }
  const std::vector<std::string> Names = suiteNames();
  // Warm-up pass: proves the suite's entries are served (all hits)
  // before anything is timed.
  double Ms = 0;
  checkSuite(certifySuite(Names, 1, Dir, &Ms), Names, Refs,
             service::Provenance::DiskCache, unsigned(Names.size()), 0, O);
  const double Setup = setupSeconds(A);
  std::fprintf(stderr, "perfbench warm-certify: %zu files in the cache (%u "
                       "past builds)\n",
               countFiles(Dir), A.SuiteOnlyCache ? 0 : kWarmPastBuilds);

  SeedRng R(A.Seed);
  const unsigned J = coreCount();
  std::vector<double> Serial, Par;
  const Clock::time_point End = Clock::now() + std::chrono::seconds(A.Seconds);
  for (unsigned Round = 0; Round == 0 || Clock::now() < End; ++Round) {
    for (unsigned Jobs : {1u, 1u, 1u, J}) {
      std::vector<std::string> Order = Names;
      R.shuffle(Order);
      service::Response Resp = certifySuite(Order, Jobs, Dir, &Ms);
      (Jobs == 1 ? Serial : Par).push_back(Ms);
      checkSuite(Resp, Order, Refs, service::Provenance::DiskCache,
                 unsigned(Order.size()), 0, O);
    }
  }
  addSuiteMetrics(A, Setup, Serial, Par, O);
  return O;
}

} // namespace pb
