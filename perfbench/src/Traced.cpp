//===- perfbench/src/Traced.cpp - The traced per-layer run ----------------===//
//
// Part of relc's benchmark (perfbench/README.md).
//
// One routine for every workload (--trace 1). It calls each layer's
// public entry point itself, in the order the pipeline runs them, with a
// span around every call, and reports each layer's self time, counts and
// heap allocations:
//
//   per program: core compile, derivation replay, analysis, TV, codelint,
//     the differential layer, and a replay of its vector battery through
//     the ir and bedrock interpreters; certificate write, binary read and
//     independent re-derivation; C emission;
//   the certificate cache: open (directory sweep), store, and lookups in
//     a populated long-lived cache;
//   relcd: a serial slice of the daemon-mixed schedule, latency split by
//     reply provenance, wire encode/decode, and the stats deltas;
//   the generated and handwritten C, per program.
//
// The layer walk runs alternately with recording on and off; the ratio of
// the two is the tracing overhead. Spans are written at the end as a
// Chrome trace under the state directory.
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"
#include "GenCode.h"
#include "Trace.h"
#include "Workloads.h"

#include "bedrock/Interp.h"
#include "cgen/CEmit.h"
#include "codelint/Codelint.h"
#include "ir/Interp.h"
#include "programs/Programs.h"
#include "relc/Cert.h"
#include "relc/Check.h"
#include "support/Rng.h"
#include "validate/Validate.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace relc;
namespace wire = relc::service::wire;

namespace pb {

namespace {

constexpr unsigned kWalkReps = 5;

/// What one walk over the suite measured, beyond the spans.
struct WalkCounts {
  uint64_t DerivNodes = 0, EmittedStmts = 0, TvTerms = 0, Fuel = 0;
  uint64_t CertBinBytes = 0, CBytes = 0;
};

std::vector<uint8_t> listBytes(const ir::Value &L) {
  std::vector<uint8_t> Out;
  unsigned N = ir::eltSize(L.listElt());
  for (const ir::Value &E : L.elems()) {
    uint64_t W = E.scalar();
    for (unsigned I = 0; I < N; ++I)
      Out.push_back(uint8_t(W >> (8 * I)));
  }
  return Out;
}

int paramIndex(const ir::SourceFn &Fn, const std::string &Name) {
  for (size_t I = 0; I < Fn.Params.size(); ++I)
    if (Fn.Params[I].Name == Name)
      return int(I);
  return -1;
}

/// The differential layer's vector battery, regenerated with its own
/// seed and generator, then run through the model evaluator (ir.eval) and
/// the Bedrock2 interpreter (bedrock.exec) as two separately timed spans.
bool runBattery(Tracer &T, const programs::ProgramDef &P,
                const bedrock::Module &Linked, WalkCounts &WC,
                std::string *Why) {
  const validate::ValidationOptions &VO = P.VOpts;
  struct Vec {
    std::vector<ir::Value> In;
    std::vector<uint64_t> Tape;
    uint64_t SrcSeed, TgtSeed;
  };
  std::vector<Vec> Battery;
  Rng R(VO.Seed);
  for (size_t Size : VO.Sizes)
    for (unsigned K = 0; K < VO.VectorsPerSize; ++K) {
      Vec V;
      V.In = VO.MakeInputs ? VO.MakeInputs(P.Model, R, Size)
                           : validate::defaultInputs(P.Model, R, Size);
      for (unsigned I = 0; I < 16 + Size % 16; ++I)
        V.Tape.push_back(R.next());
      V.SrcSeed = R.next();
      V.TgtSeed = R.next();
      for (const sep::ArgSpec &A : P.Spec.Args)
        if (A.TheKind == sep::ArgSpec::Kind::ArrayLen)
          V.In[paramIndex(P.Model, A.SourceName)] = ir::Value::word(
              V.In[paramIndex(P.Model, A.OfArray)].elems().size());
      Battery.push_back(std::move(V));
    }
  {
    Scoped S(T, "ir.eval", P.Name);
    for (const Vec &V : Battery) {
      ir::EffectCtx Ctx;
      Ctx.Nondet = Rng(V.SrcSeed);
      Ctx.InputTape = V.Tape;
      if (!ir::evalFn(P.Model, V.In, Ctx)) {
        *Why = P.Name + ": model evaluation failed on a battery vector";
        return false;
      }
    }
  }
  Scoped S(T, "bedrock.exec", P.Name);
  for (const Vec &V : Battery) {
    bedrock::State St;
    std::vector<bedrock::Word> Args;
    for (const sep::ArgSpec &A : P.Spec.Args) {
      const ir::Value &X = V.In[paramIndex(P.Model, A.SourceName)];
      switch (A.TheKind) {
      case sep::ArgSpec::Kind::Scalar:
      case sep::ArgSpec::Kind::ArrayLen:
        Args.push_back(X.asWord());
        break;
      case sep::ArgSpec::Kind::ArrayPtr: {
        std::vector<uint8_t> Bytes = listBytes(X);
        bedrock::Word Base = St.Mem.alloc(Bytes.size());
        (void)St.Mem.fill(Base, Bytes);
        Args.push_back(Base);
        break;
      }
      case sep::ArgSpec::Kind::CellPtr: {
        bedrock::Word Base = St.Mem.alloc(8);
        (void)St.Mem.storeN(bedrock::AccessSize::Eight, Base,
                            X.elems()[0].asWord());
        Args.push_back(Base);
        break;
      }
      }
    }
    bedrock::TapeEnv Env(V.Tape);
    bedrock::ExecOptions EO;
    EO.NondetSeed = V.TgtSeed;
    bedrock::Interp I(Linked, Env, EO);
    if (!I.callFunction(St, P.Spec.TargetName, Args)) {
      *Why = P.Name + ": target run failed on a battery vector";
      return false;
    }
    WC.Fuel += I.fuelUsed();
  }
  return true;
}

double spanMs(const Tracer &T, size_t From, const std::string &Name,
              const std::string &Id) {
  double Ms = 0;
  for (size_t I = From; I < T.spans().size(); ++I) {
    const Span &S = T.spans()[I];
    if (S.Name == Name && S.Id == Id)
      Ms += double(S.EndNs - S.StartNs) / 1e6;
  }
  return Ms;
}

/// One walk over the suite through every per-program layer. Returns the
/// walk's wall time, or a negative value with \p Why on a wrong output.
double walkSuite(Tracer &T, const std::vector<RefCert> &Refs, WalkCounts &WC,
                 double *CriticalMs, std::string *Why) {
  const size_t First = T.spans().size();
  Clock::time_point T0 = Clock::now();
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    core::CompileResult CR;
    {
      Scoped S(T, "core.compile", P.Name);
      core::Compiler C;
      Result<core::CompileResult> R = C.compileFn(P.Model, P.Spec, P.Hints);
      if (!R) {
        *Why = P.Name + ": compile failed";
        return -1;
      }
      CR = R.take();
    }
    WC.DerivNodes += CR.Proof ? CR.Proof->size() : 0;
    WC.EmittedStmts += CR.EmittedStmts;
    validate::ValidationOptions VO = P.VOpts;
    VO.Hints = P.Hints;
    bedrock::Module Linked;
    Linked.Functions.push_back(CR.Fn);

    bool Ok = true;
    {
      Scoped S(T, "validate.replay", P.Name);
      Ok &= bool(validate::replayDerivation(P.Model, CR));
    }
    {
      Scoped S(T, "analysis", P.Name);
      Ok &= bool(validate::analyzeTarget(P.Model, P.Spec, CR, VO));
    }
    tv::TvReport Tv;
    {
      Scoped S(T, "tv", P.Name);
      Tv = tv::validateTranslation(P.Model, P.Spec, CR.Fn,
                                   P.Hints.EntryFacts);
    }
    WC.TvTerms += Tv.NumTerms;
    codelint::Report Cl;
    {
      Scoped S(T, "codelint", P.Name);
      Cl = codelint::analyzeFunction(CR.Fn, P.Spec, P.Model,
                                     P.Hints.EntryFacts);
    }
    {
      Scoped S(T, "validate.diff", P.Name);
      Ok &= bool(validate::differentialCertify(P.Model, P.Spec, CR, Linked,
                                               VO));
    }
    if (!Ok || Tv.TheVerdict != tv::Verdict::Proved ||
        Cl.overall() != codelint::Verdict::Safe) {
      *Why = P.Name + ": a certification layer did not pass";
      return -1;
    }
    if (!runBattery(T, P, Linked, WC, Why))
      return -1;

    std::string Json, Bin;
    {
      Scoped S(T, "cert.write", P.Name);
      cert::Certificate C = cert::fromTvReport(
          Tv, cert::contentKey(P.Model, P.Hints.EntryFacts, P.Spec, CR.Fn));
      C.Codelint = cert::codelintRecOf(Cl);
      Json = cert::Writer::write(C);
      Bin = cert::BinWriter::write(C);
    }
    WC.CertBinBytes += Bin.size();
    const RefCert *Ref = findRef(Refs, P.Name);
    if (!Ref || Json != Ref->CertJson || Bin != Ref->CertBin) {
      *Why = P.Name + ": certificate differs from the service's";
      return -1;
    }
    std::optional<cert::Certificate> Back;
    {
      Scoped S(T, "cert.bin_read", P.Name);
      Back = cert::BinReader::parse(Bin);
    }
    cert::CheckResult CR2;
    {
      Scoped S(T, "cert.rederive", P.Name);
      if (Back)
        CR2 = cert::Rederive::check(*Back, P.Model, P.Hints.EntryFacts,
                                    P.Spec, CR.Fn);
    }
    if (!Back || !CR2.Accepted) {
      *Why = P.Name + ": the independent checker refused the certificate";
      return -1;
    }
    {
      Scoped S(T, "cgen.emit", P.Name);
      Result<std::string> C = cgen::emitModule(Linked);
      if (!C) {
        *Why = P.Name + ": C emission failed";
        return -1;
      }
      WC.CBytes += C->size();
    }
  }
  const double WallMs = msSince(T0);
  // The longest per-program chain as the pipeline schedules it: compile,
  // then the four static layers side by side, then differential, then
  // the certificate.
  *CriticalMs = 0;
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    double Static = 0;
    for (const char *L : {"validate.replay", "analysis", "tv", "codelint"})
      Static = std::max(Static, spanMs(T, First, L, P.Name));
    double Chain = spanMs(T, First, "core.compile", P.Name) + Static +
                   spanMs(T, First, "validate.diff", P.Name) +
                   spanMs(T, First, "cert.write", P.Name);
    *CriticalMs = std::max(*CriticalMs, Chain);
  }
  return WallMs;
}

pipeline::CertEntry entryFor(const programs::ProgramDef &P,
                             const RefCert &Ref, uint64_t OptsHash) {
  pipeline::CertEntry E;
  E.Program = P.Name;
  E.OptsHash = OptsHash;
  E.ReplayOk = E.AnalysisOk = E.TvRan = E.CodelintRan = true;
  E.DifferentialOk = true;
  E.TvVerdict = "proved";
  E.CodelintVerdict = "safe";
  E.TvCertificate = Ref.CertJson;
  E.TvCertBin = Ref.CertBin;
  return E;
}

/// The cache layer alone: open + store into an empty directory, then open
/// + look up every program in a populated long-lived cache.
bool walkCache(Tracer &T, const std::vector<RefCert> &Refs,
               const std::string &Populated, std::string *Why) {
  struct Keyed {
    const programs::ProgramDef *P;
    pipeline::CertKey Key;
    uint64_t Opts;
  };
  std::vector<Keyed> Ks;
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    core::Compiler C;
    Result<core::CompileResult> R = C.compileFn(P.Model, P.Spec, P.Hints);
    if (!R) {
      *Why = P.Name + ": compile failed";
      return false;
    }
    validate::ValidationOptions VO = P.VOpts;
    VO.Hints = P.Hints;
    Ks.push_back({&P, pipeline::certKeyFor(P.Model, P.Hints, P.Spec, R->Fn),
                  pipeline::optionsHashFor(VO, pipeline::PipelineOptions{})});
  }
  removeTree("trace-store");
  {
    std::optional<pipeline::CertCache> Store;
    {
      Scoped S(T, "pipeline.cache_open.empty", "trace-store");
      Store.emplace("trace-store");
    }
    for (const Keyed &K : Ks) {
      pipeline::CertEntry E = entryFor(*K.P, *findRef(Refs, K.P->Name), K.Opts);
      Scoped S(T, "pipeline.cache_store", K.P->Name);
      if (!Store->store(K.Key, E)) {
        *Why = K.P->Name + ": cache store failed";
        return false;
      }
    }
  }
  removeTree("trace-store");
  std::optional<pipeline::CertCache> Warm;
  {
    Scoped S(T, "pipeline.cache_open", Populated);
    Warm.emplace(Populated);
  }
  for (const Keyed &K : Ks) {
    std::optional<pipeline::CertEntry> E;
    {
      Scoped S(T, "pipeline.cache_lookup", K.P->Name);
      E = Warm->lookup(K.Key, K.Opts);
    }
    if (!E || E->TvCertBin != findRef(Refs, K.P->Name)->CertBin) {
      *Why = K.P->Name + ": populated cache lookup missed or differed";
      return false;
    }
  }
  return true;
}

double timedCertify(const std::string &CacheDir, bool *Ok) {
  service::Request Req;
  Req.CacheDir = CacheDir;
  Clock::time_point T0 = Clock::now();
  service::Response Resp = service::certify(Req);
  double Ms = msSince(T0);
  *Ok = *Ok && Resp.Exit == 0;
  return Ms;
}

} // namespace

Outcome runTraced(const Args &A) {
  Outcome O;
  auto Bail = [&](const std::string &W) {
    setAllocCounting(false);
    O.Attempted = std::max<uint64_t>(O.Attempted, 1);
    O.wrong(W);
    return O;
  };
  std::vector<RefCert> Refs;
  std::string Why;
  std::string Warm;
  if (!buildReference(&Refs, &Why) || !warmCache(A, false, &Warm, &Why))
    return Bail(Why);

  // The end-to-end reference with recording off: the untraced in-process
  // suite.
  bool CertOk = true;
  std::vector<double> Untraced;
  for (unsigned I = 0; I < kWalkReps; ++I)
    Untraced.push_back(timedCertify("", &CertOk));
  if (!CertOk)
    return Bail("an untraced reference certify failed");
  O.Attempted += kWalkReps;

  // The layer walk, alternately recorded and not.
  Tracer T;
  std::vector<double> On, Off, Critical;
  std::vector<std::map<std::string, Tracer::Totals>> PerRep;
  WalkCounts WC;
  for (unsigned I = 0; I < 2 * kWalkReps; ++I) {
    const bool Rec = I % 2 == 0;
    T.setEnabled(Rec);
    setAllocCounting(Rec);
    const size_t First = T.spans().size();
    WalkCounts Mine;
    double Crit = 0;
    double Ms = walkSuite(T, Refs, Mine, &Crit, &Why);
    setAllocCounting(false);
    if (Ms < 0)
      return Bail(Why);
    O.Attempted += programs::allPrograms().size();
    (Rec ? On : Off).push_back(Ms);
    if (!Rec)
      continue;
    Critical.push_back(Crit);
    WC = Mine;
    PerRep.push_back(T.totals(First));
  }
  std::vector<std::map<std::string, Tracer::Totals>> CacheReps;
  T.setEnabled(true);
  for (unsigned I = 0; I < kWalkReps; ++I) {
    const size_t First = T.spans().size();
    setAllocCounting(true);
    bool Ok = walkCache(T, Refs, Warm, &Why);
    setAllocCounting(false);
    if (!Ok)
      return Bail(Why);
    CacheReps.push_back(T.totals(First));
  }
  O.Attempted += kWalkReps * 2 * programs::allPrograms().size();
  // Median over reps of a layer's per-rep self time or allocations.
  auto Med = [](const std::vector<std::map<std::string, Tracer::Totals>> &Reps,
                const std::string &Name, bool Allocs) {
    std::vector<double> V;
    for (const auto &R : Reps) {
      auto It = R.find(Name);
      V.push_back(It == R.end()       ? 0.0
                  : Allocs ? double(It->second.Allocs)
                           : It->second.SelfMs);
    }
    return median(V);
  };
  auto LayerMs = [&](const std::string &Name) {
    return Med(PerRep, Name, false);
  };
  auto LayerAllocs = [&](const std::string &Name) {
    return Med(PerRep, Name, true);
  };
  auto CacheTotals = [&](const std::string &Name, bool Allocs) {
    return Med(CacheReps, Name, Allocs);
  };
  auto ProgMs = [&](const std::string &Name, const std::string &Prog) {
    std::vector<double> V;
    for (const Span &S : T.spans())
      if (S.Name == Name && S.Id == Prog)
        V.push_back(double(S.EndNs - S.StartNs) / 1e6);
    return median(V);
  };

  O.add("core.compile_ms", LayerMs("core.compile"), "ms");
  O.add("core.deriv_nodes", double(WC.DerivNodes), "count");
  O.add("core.emitted_stmts", double(WC.EmittedStmts), "count");
  O.add("validate.replay_ms", LayerMs("validate.replay"), "ms");
  O.add("analysis.ms", LayerMs("analysis"), "ms");
  O.add("tv.ms", LayerMs("tv"), "ms");
  O.add("tv.terms", double(WC.TvTerms), "count");
  O.add("codelint.ms", LayerMs("codelint"), "ms");
  O.add("validate.diff_ms", LayerMs("validate.diff"), "ms");
  for (const std::string &N : suiteNames())
    O.add("validate.diff." + N + "_ms", ProgMs("validate.diff", N), "ms");
  O.add("ir.eval_ms", LayerMs("ir.eval"), "ms");
  O.add("bedrock.exec_ms", LayerMs("bedrock.exec"), "ms");
  O.add("bedrock.fuel", double(WC.Fuel), "count");
  O.add("cert.write_ms", LayerMs("cert.write"), "ms");
  O.add("cert.bin_bytes", double(WC.CertBinBytes), "B");
  O.add("cert.bin_read_ms", LayerMs("cert.bin_read"), "ms");
  O.add("cert.rederive_ms", LayerMs("cert.rederive"), "ms");
  O.add("cgen.emit_ms", LayerMs("cgen.emit"), "ms");
  O.add("cgen.c_bytes", double(WC.CBytes), "B");
  O.add("pipeline.critical_path_ms", median(Critical), "ms");
  O.add("pipeline.cache_open_ms", CacheTotals("pipeline.cache_open", false),
        "ms");
  O.add("pipeline.cache_lookup_ms",
        CacheTotals("pipeline.cache_lookup", false), "ms");
  O.add("pipeline.cache_store_ms", CacheTotals("pipeline.cache_store", false),
        "ms");
  O.add("pipeline.cache_files", double(countFiles(Warm)), "count");
  O.add("service.certify_suite_ms", median(Untraced), "ms");
  for (const char *L : {"core.compile", "validate.replay", "analysis", "tv",
                        "codelint", "validate.diff", "ir.eval", "bedrock.exec",
                        "cert.write", "cert.bin_read", "cert.rederive",
                        "cgen.emit"})
    O.add(std::string("alloc.") + L, LayerAllocs(L), "count");
  for (const char *L : {"pipeline.cache_open", "pipeline.cache_lookup",
                        "pipeline.cache_store"})
    O.add(std::string("alloc.") + L, CacheTotals(L, true), "count");
  O.add("trace.overhead_pct", (median(On) / median(Off) - 1.0) * 100.0, "%");

  // relcd: a serial slice of the daemon-mixed schedule from one client.
  {
    removeTree("trace-relcd-cache");
    Daemon D;
    const unsigned Workers = std::min(2u, coreCount());
    if (!D.start(A, "trace-relcd.sock", "trace-relcd-cache", Workers, &Why))
      return Bail(Why);
    service::Client C;
    if (!C.connect(D.socket()))
      return Bail("cannot connect to relcd");
    wire::Message Fill = certifyMessage(suiteNames(), 0, false, true, true);
    Result<wire::Message> R = C.roundTrip(Fill);
    if (!R || judgeReply(ReqClass::Cold, Fill.Certify, *R, Refs, &Why) !=
                  Judgement::Ok)
      return Bail("filling relcd's cache: " + (R ? Why : "lost"));
    const wire::Message FullReply = *R;
    for (const std::string &N : suiteNames()) {
      wire::Message M = certifyMessage({N}, 0, false, true, true);
      R = C.roundTrip(M);
      if (!R || judgeReply(ReqClass::Disk, M.Certify, *R, Refs, &Why) !=
                    Judgement::Ok)
        return Bail("warming relcd's memo: " + (R ? Why : "lost"));
    }
    wire::Stats Before{}, After{};
    D.stats(&Before);
    const Schedule Sched(A.Seed);
    std::vector<double> ByClass[3];
    for (uint64_t I = 0; I < 3 * Schedule::kBlock; ++I) {
      Schedule::Item It = Sched.at(I);
      Clock::time_point S0 = Clock::now();
      {
        Scoped S(T, "service.request",
                 std::string(className(It.Class)) + "#" + std::to_string(I));
        R = C.roundTrip(It.Msg, 60000);
      }
      double Ms = msSince(S0);
      ++O.Attempted;
      Judgement J = R ? judgeReply(It.Class, It.Msg.Certify, *R, Refs, &Why)
                      : Judgement::Failed;
      if (J == Judgement::Ok)
        ByClass[unsigned(It.Class)].push_back(Ms);
      else if (J == Judgement::Failed)
        O.failed(R ? Why : "lost round trip");
      else
        O.wrong(Why);
      if (!R && !C.connect(D.socket()))
        return Bail("relcd connection lost");
    }
    D.stats(&After);
    std::vector<double> Enc, Dec;
    for (unsigned I = 0; I < 200; ++I) {
      std::string Frame;
      Clock::time_point S0 = Clock::now();
      {
        Scoped S(T, "service.wire_encode", "suite-reply");
        Frame = wire::frame(wire::encode(FullReply));
      }
      Enc.push_back(msSince(S0) * 1000.0);
      size_t Size = 0;
      std::string_view Payload;
      wire::Message Back;
      std::string Reason;
      S0 = Clock::now();
      {
        Scoped S(T, "service.wire_decode", "suite-reply");
        if (wire::splitFrame(Frame, &Size, &Payload) != wire::FrameStatus::Ok ||
            !wire::decode(Payload, &Back, &Reason))
          return Bail("wire round trip of a suite reply failed: " + Reason);
      }
      Dec.push_back(msSince(S0) * 1000.0);
    }
    if (!D.stop())
      O.wrong("relcd did not drain and exit on shutdown");
    removeTree("trace-relcd-cache");
    O.add("service.memo_p50_ms", median(ByClass[0]), "ms");
    O.add("service.disk_p50_ms", median(ByClass[1]), "ms");
    O.add("service.live_p50_ms", median(ByClass[2]), "ms");
    O.add("service.wire_encode_us", median(Enc), "us");
    O.add("service.wire_decode_us", median(Dec), "us");
    O.add("service.memo_hits", double(After.MemoHits - Before.MemoHits),
          "count");
    O.add("service.cache_hits", double(After.CacheHits - Before.CacheHits),
          "count");
    O.add("service.cache_misses",
          double(After.CacheMisses - Before.CacheMisses), "count");
    O.add("service.worker_jobs",
          double((After.CertifyRequests - Before.CertifyRequests) -
                 (After.MemoHits - Before.MemoHits) -
                 (After.BusyRejections - Before.BusyRejections)),
          "count");
    O.add("service.busy_replies",
          double(After.BusyRejections - Before.BusyRejections), "count");
  }

  // The generated and handwritten C, per program.
  {
    std::vector<GenInput> Inputs;
    if (!prepareGenInputs(A.Seed, 1, &Inputs, &Why))
      return Bail(Why);
    std::vector<uint8_t> Buf(kGenBufSize);
    std::vector<double> GenNs, Ratio;
    for (const GenInput &In : Inputs) {
      std::vector<double> G, H;
      for (unsigned I = 0; I < 30; ++I)
        for (bool Generated : {I % 2 == 0, I % 2 != 0}) {
          Scoped S(T, Generated ? "gen.run" : "hand.run", In.Task->Name);
          (Generated ? G : H).push_back(timePass(In, Generated, Buf, O));
        }
      const double GNs = median(G) * 1e6 / double(kGenBufSize);
      const double HNs = median(H) * 1e6 / double(kGenBufSize);
      O.add(std::string("gen.") + In.Task->Name + ".ns_per_byte", GNs,
            "ns/B");
      O.add(std::string("hand.") + In.Task->Name + ".ns_per_byte", HNs,
            "ns/B");
      GenNs.push_back(GNs);
      Ratio.push_back(GNs / HNs);
    }
    O.add("gen_ns_per_byte", geomean(GenNs), "ns/B");
    O.add("gen_vs_hand", geomean(Ratio), "ratio");
  }

  const std::string TracePath = A.StateDir + "/trace-" + A.Workload + "-" +
                                std::to_string(A.Seed) + ".json";
  if (!T.writeChromeJson(TracePath))
    O.wrong("could not write the Chrome trace " + TracePath);
  else
    std::fprintf(stderr, "perfbench: Chrome trace (%zu spans) in %s\n",
                 T.spans().size(), TracePath.c_str());

  // Self time per layer, as the trace shows it.
  std::fprintf(stderr, "%-26s %10s %10s %12s %8s\n", "span", "self ms",
               "total ms", "allocs", "count");
  for (const auto &[Name, Tot] : T.totals())
    std::fprintf(stderr, "%-26s %10.3f %10.3f %12llu %8u\n", Name.c_str(),
                 Tot.SelfMs, Tot.TotalMs, (unsigned long long)Tot.Allocs,
                 Tot.Count);
  return O;
}

} // namespace pb
