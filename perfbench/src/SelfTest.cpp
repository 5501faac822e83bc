//===- perfbench/src/SelfTest.cpp - The checks can fail -------------------===//
//
// Part of relc's benchmark (perfbench/README.md).
//
// Feeds each correctness check the workloads rely on one deliberately
// corrupted output and requires a refusal, after requiring that the
// uncorrupted output passes: a flipped certificate byte (checker and
// reference comparison), one wrong output word from a generated function,
// and a reply whose provenance does not match its request class.
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"
#include "GenCode.h"
#include "Workloads.h"

#include <cstdio>

using namespace relc;
namespace wire = relc::service::wire;

namespace pb {

namespace {

bool expect(bool Cond, const char *What, unsigned &Bad) {
  std::printf("perfbench self-test: %-62s %s\n", What, Cond ? "ok" : "FAILED");
  if (!Cond)
    ++Bad;
  return Cond;
}

} // namespace

bool runSelfTest(const Args &A) {
  unsigned Bad = 0;
  std::string Why;
  std::vector<RefCert> Refs;
  if (!expect(buildReference(&Refs, &Why), "reference suite certifies", Bad))
    return false;
  const RefCert &Fnv = *findRef(Refs, "fnv1a");

  // 1. A flipped certificate byte.
  std::string Flipped = Fnv.CertBin;
  Flipped[Flipped.size() / 2] ^= 0x01;
  expect(checkerAccepts("fnv1a", Fnv.CertBin, &Why),
         "checker accepts the reference certificate", Bad);
  expect(!checkerAccepts("fnv1a", Flipped, &Why),
         "checker refuses a certificate with one flipped byte", Bad);
  service::ProgramReply R;
  R.Name = "fnv1a";
  R.Status = service::ProgramStatus::Certified;
  R.From = service::Provenance::Live;
  R.TvVerdict = "proved";
  R.CodelintVerdict = "safe";
  R.CertJson = Fnv.CertJson;
  R.CertBin = Fnv.CertBin;
  expect(replyMatches(R, Fnv, service::Provenance::Live, &Why),
         "reply check accepts the reference bytes", Bad);
  R.CertJson[R.CertJson.size() / 2] ^= 0x01;
  expect(!replyMatches(R, Fnv, service::Provenance::Live, &Why),
         "reply check refuses a flipped JSON certificate byte", Bad);

  // 2. One wrong output word from a generated function.
  std::vector<GenInput> Inputs;
  expect(prepareGenInputs(A.Seed, 1, &Inputs, &Why),
         "generated code passes the published values and properties", Bad);
  unsigned Refused = 0;
  for (const GenInput &In : Inputs) {
    std::vector<uint8_t> Out = In.Bytes;
    uint64_t Ret = In.Task->Gen(Out.data(), Out.size());
    if (!genOutputMatches(In, Ret, Out, &Why))
      continue; // Not refused: counted below.
    bool WordRefused = !genOutputMatches(In, Ret ^ 1, Out, &Why);
    bool BufRefused = true;
    if (In.Task->Mutates) {
      Out[Out.size() / 3] ^= 0x01;
      BufRefused = !genOutputMatches(In, Ret, Out, &Why);
    }
    Refused += WordRefused && BufRefused;
  }
  expect(Refused == Inputs.size(),
         "gen check refuses a wrong word (and byte) from every program", Bad);

  // 3. A reply whose provenance does not match its request class.
  wire::Message Req = certifyMessage({"fnv1a"}, 0, false, true, true);
  wire::Message Reply;
  Reply.TheKind = wire::Kind::CertifyReply;
  wire::ProgramResult P;
  P.Name = "fnv1a";
  P.Status = uint8_t(service::ProgramStatus::Certified);
  P.From = uint8_t(service::Provenance::DiskCache);
  P.TvVerdict = "proved";
  P.CodelintVerdict = "safe";
  P.CertJson = Fnv.CertJson;
  P.CertBin = Fnv.CertBin;
  Reply.Reply.Programs.push_back(P);
  expect(judgeReply(ReqClass::Disk, Req.Certify, Reply, Refs, &Why) ==
             Judgement::Ok,
         "a disk-class request answered from the disk cache passes", Bad);
  expect(judgeReply(ReqClass::Memo, Req.Certify, Reply, Refs, &Why) ==
             Judgement::Wrong,
         "a memo-class request answered from the disk cache is wrong", Bad);
  expect(judgeReply(ReqClass::Cold, Req.Certify, Reply, Refs, &Why) ==
             Judgement::Wrong,
         "a cold request answered from the disk cache is wrong", Bad);
  wire::Message Busy;
  Busy.TheKind = wire::Kind::ErrorReply;
  Busy.Error.Reason = "server-busy";
  expect(judgeReply(ReqClass::Memo, Req.Certify, Busy, Refs, &Why) ==
             Judgement::Failed,
         "a server-busy reply counts as a failed operation", Bad);

  std::printf("perfbench self-test: %s\n",
              Bad ? "a check accepted a corrupted output" : "all checks bite");
  return Bad == 0;
}

} // namespace pb
