//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of relc's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "programs/Programs.h"
#include "relc/Cert.h"
#include "relc/Check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <thread>

#include <sys/resource.h>

namespace fs = std::filesystem;
using namespace relc;

namespace pb {

int64_t monoNs() {
  timespec T{};
  clock_gettime(CLOCK_MONOTONIC, &T);
  return int64_t(T.tv_sec) * 1000000000 + T.tv_nsec;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double tailQuantile(size_t N, double Cap) {
  if (N <= 10)
    return 0.5;
  return std::max(0.5, std::min(Cap, 1.0 - 10.0 / double(N)));
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / double(V.size()));
}

uint64_t SeedRng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

void Outcome::wrong(const std::string &Why) {
  Correct = false;
  if (Problems.size() < 8)
    Problems.push_back("wrong output: " + Why);
}

void Outcome::failed(const std::string &Why) {
  ++Failed;
  if (Problems.size() < 8)
    Problems.push_back("failed operation: " + Why);
}

namespace {

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

} // namespace

void printOutcome(const Args &A, const Outcome &O) {
  for (const std::string &P : O.Problems)
    std::fprintf(stderr, "perfbench: %s\n", P.c_str());
  std::printf("perfbench %s seed=%llu trace=%d: %llu attempted, %llu "
              "failed, %s\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Trace ? 1 : 0,
              (unsigned long long)O.Attempted, (unsigned long long)O.Failed,
              O.Correct ? "outputs correct" : "OUTPUTS WRONG");
  for (const Metric &M : O.Metrics)
    std::printf("  %-34s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::string J = "{\"correct\": ";
  J += O.Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(O.Attempted);
  J += ", \"failed\": " + std::to_string(O.Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I < O.Metrics.size(); ++I) {
    const Metric &M = O.Metrics[I];
    J += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
         jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

double selfPeakRssMib() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux.
}

namespace {
double vmHwmMib(const std::string &Pid) {
  std::ifstream In("/proc/" + Pid + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}
} // namespace

double peakRssMibOf(int Pid) {
  const std::string P = std::to_string(Pid);
  double Max = vmHwmMib(P);
  std::error_code EC;
  for (const fs::directory_entry &T :
       fs::directory_iterator("/proc/" + P + "/task", EC)) {
    std::ifstream In(T.path() / "children");
    std::string Child;
    while (In >> Child)
      Max = std::max(Max, vmHwmMib(Child));
  }
  return Max;
}

unsigned coreCount() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

void removeTree(const std::string &Dir) {
  std::error_code EC;
  fs::remove_all(Dir, EC);
}

size_t countFiles(const std::string &Dir) {
  std::error_code EC;
  size_t N = 0;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC))
    ++N;
  return N;
}

std::vector<std::string> suiteNames() {
  std::vector<std::string> Names;
  for (const programs::ProgramDef &P : programs::allPrograms())
    Names.push_back(P.Name);
  return Names;
}

bool checkerAccepts(const std::string &Name, const std::string &CertBin,
                    std::string *Why) {
  const programs::ProgramDef *P = programs::findProgram(Name);
  if (!P) {
    *Why = "unknown program " + Name;
    return false;
  }
  cert::ReadError RE;
  std::optional<cert::Certificate> C = cert::BinReader::parse(CertBin, &RE);
  if (!C) {
    *Why = Name + ": binary certificate rejected: " +
           std::string(cert::rejectName(RE.Why));
    return false;
  }
  core::Compiler Comp;
  Result<core::CompileResult> R = Comp.compileFn(P->Model, P->Spec, P->Hints);
  if (!R) {
    *Why = Name + ": model failed to compile for the check";
    return false;
  }
  cert::CheckResult CR = cert::Rederive::check(*C, P->Model,
                                               P->Hints.EntryFacts, P->Spec,
                                               R->Fn);
  if (!CR.Accepted) {
    *Why = Name + ": checker rejected the certificate: " +
           std::string(cert::rejectName(CR.Why));
    return false;
  }
  return true;
}

bool buildReference(std::vector<RefCert> *Out, std::string *Why) {
  service::Request Req;
  Req.Jobs = 1;
  service::Response Resp = service::certify(Req);
  if (Resp.Exit != 0 || Resp.Programs.size() != programs::allPrograms().size()) {
    *Why = "reference certify exited " + std::to_string(Resp.Exit);
    return false;
  }
  Out->clear();
  for (const service::ProgramReply &P : Resp.Programs) {
    // The suite's known answers: everything proved and safe.
    if (P.Status != service::ProgramStatus::Certified ||
        P.TvVerdict != "proved" || P.CodelintVerdict != "safe") {
      *Why = P.Name + ": reference verdicts are " + P.TvVerdict + "/" +
             P.CodelintVerdict;
      return false;
    }
    if (!checkerAccepts(P.Name, P.CertBin, Why))
      return false;
    // The JSON face must decode to the same certificate as the binary.
    std::optional<cert::Certificate> J = cert::Reader::parse(P.CertJson);
    if (!J || cert::BinWriter::write(*J) != P.CertBin) {
      *Why = P.Name + ": JSON and binary certificate faces disagree";
      return false;
    }
    Out->push_back({P.Name, P.CertJson, P.CertBin});
  }
  return true;
}

const RefCert *findRef(const std::vector<RefCert> &Refs,
                       const std::string &Name) {
  for (const RefCert &R : Refs)
    if (R.Name == Name)
      return &R;
  return nullptr;
}

namespace {

bool facesMatch(const std::string &Name, const std::string &Json,
                const std::string &Bin, const RefCert &Ref, bool WantJson,
                bool WantBin, std::string *Why) {
  if (Json != (WantJson ? Ref.CertJson : std::string())) {
    *Why = Name + ": JSON certificate differs from the reference";
    return false;
  }
  if (Bin != (WantBin ? Ref.CertBin : std::string())) {
    *Why = Name + ": binary certificate differs from the reference";
    return false;
  }
  return true;
}

} // namespace

bool replyMatches(const service::ProgramReply &R, const RefCert &Ref,
                  service::Provenance From, std::string *Why) {
  if (R.Name != Ref.Name) {
    *Why = "reply for " + R.Name + " where " + Ref.Name + " was expected";
    return false;
  }
  if (R.TvVerdict != "proved" || R.CodelintVerdict != "safe") {
    *Why = R.Name + ": verdicts " + R.TvVerdict + "/" + R.CodelintVerdict +
           ", expected proved/safe";
    return false;
  }
  if (R.From != From) {
    *Why = R.Name + ": provenance " + service::provenanceName(R.From) +
           ", expected " + service::provenanceName(From);
    return false;
  }
  return facesMatch(R.Name, R.CertJson, R.CertBin, Ref, true, true, Why);
}

bool wireResultMatches(const service::wire::ProgramResult &R,
                       const RefCert &Ref, service::Provenance From,
                       bool WantJson, bool WantBin, std::string *Why) {
  if (R.Name != Ref.Name) {
    *Why = "reply for " + R.Name + " where " + Ref.Name + " was expected";
    return false;
  }
  if (R.TvVerdict != "proved" || R.CodelintVerdict != "safe") {
    *Why = R.Name + ": verdicts " + R.TvVerdict + "/" + R.CodelintVerdict +
           ", expected proved/safe";
    return false;
  }
  if (R.From != uint8_t(From)) {
    *Why = R.Name + ": provenance " +
           service::provenanceName(service::Provenance(R.From)) +
           ", expected " + service::provenanceName(From);
    return false;
  }
  return facesMatch(R.Name, R.CertJson, R.CertBin, Ref, WantJson, WantBin,
                    Why);
}

} // namespace pb
