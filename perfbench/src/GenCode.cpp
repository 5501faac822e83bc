//===- perfbench/src/GenCode.cpp - generated-code -------------------------===//
//
// Part of relc's benchmark (perfbench/README.md).
//
// The C that relc-gen emitted for the seven programs (at build time, from
// this checkout) runs over seeded 1 MiB buffers, interleaved with the
// handwritten references in bench/ref/. Every output is compared with the
// reference's; published check values and algebraic properties are
// checked once in set-up.
//
//===----------------------------------------------------------------------===//

#include "GenCode.h"
#include "Workloads.h"

#include "ref_impls.h"
#include "relc_generated.h"

#include <cstdio>
#include <cstring>
#include <iterator>

namespace pb {

namespace {

uint64_t genFnv1a(uint8_t *S, size_t N) { return relc_fnv1a(uintptr_t(S), N); }
uint64_t refFnv1a(uint8_t *S, size_t N) { return ref_fnv1a(S, N); }
uint64_t genUtf8(uint8_t *S, size_t N) { return relc_utf8(uintptr_t(S), N); }
uint64_t refUtf8(uint8_t *S, size_t N) { return ref_utf8(S, N); }
uint64_t genUpstr(uint8_t *S, size_t N) {
  relc_upstr(uintptr_t(S), N);
  return 0;
}
uint64_t refUpstr(uint8_t *S, size_t N) {
  ref_upstr(S, N);
  return 0;
}
/// m3s scrambles one 32-bit block; both sides fold it over every block of
/// the buffer through the same loop.
uint64_t genM3s(uint8_t *S, size_t N) {
  uint64_t Acc = 0;
  for (size_t I = 0; I + 4 <= N; I += 4) {
    uint32_t K;
    std::memcpy(&K, S + I, 4);
    Acc = Acc * 31 + relc_m3s(K);
  }
  return Acc;
}
uint64_t refM3s(uint8_t *S, size_t N) {
  uint64_t Acc = 0;
  for (size_t I = 0; I + 4 <= N; I += 4) {
    uint32_t K;
    std::memcpy(&K, S + I, 4);
    Acc = Acc * 31 + ref_m3s(K);
  }
  return Acc;
}
uint64_t genIp(uint8_t *S, size_t N) { return relc_ip_chk(uintptr_t(S), N); }
uint64_t refIp(uint8_t *S, size_t N) { return ref_ip_chk(S, N); }
uint64_t genFasta(uint8_t *S, size_t N) {
  relc_fasta(uintptr_t(S), N);
  return 0;
}
uint64_t refFasta(uint8_t *S, size_t N) {
  ref_fasta(S, N);
  return 0;
}
uint64_t genCrc32(uint8_t *S, size_t N) { return relc_crc32(uintptr_t(S), N); }
uint64_t refCrc32(uint8_t *S, size_t N) { return ref_crc32(S, N); }

std::vector<uint8_t> randomBytes(SeedRng &R, size_t N) {
  std::vector<uint8_t> Out(N);
  for (size_t I = 0; I < N; I += 8) {
    uint64_t W = R.next();
    std::memcpy(Out.data() + I, &W, std::min<size_t>(8, N - I));
  }
  return Out;
}

std::vector<uint8_t> asciiBytes(SeedRng &R, size_t N) {
  std::vector<uint8_t> Out = randomBytes(R, N);
  for (uint8_t &B : Out)
    B = uint8_t(0x20 + B % 0x5f);
  return Out;
}

std::vector<uint8_t> dnaBytes(SeedRng &R, size_t N) {
  static const char Alphabet[] = "ACGTacgtNRYKMn";
  std::vector<uint8_t> Out = randomBytes(R, N);
  for (uint8_t &B : Out)
    B = uint8_t(Alphabet[B % (sizeof(Alphabet) - 1)]);
  return Out;
}

/// Valid UTF-8: a seeded mix of 1- to 4-byte encodings, no surrogates.
std::vector<uint8_t> utf8Bytes(SeedRng &R, size_t N) {
  std::vector<uint8_t> Out;
  Out.reserve(N + 4);
  while (Out.size() < N) {
    uint64_t W = R.next();
    uint32_t Cp;
    switch (W & 3) {
    case 0:
      Cp = 0x20 + uint32_t((W >> 8) % 0x5f);
      break;
    case 1:
      Cp = 0x80 + uint32_t((W >> 8) % 0x780);
      break;
    case 2:
      Cp = 0x800 + uint32_t((W >> 8) % 0xF800);
      if (Cp >= 0xD800 && Cp <= 0xDFFF)
        Cp -= 0x1000;
      break;
    default:
      Cp = 0x10000 + uint32_t((W >> 8) % 0x100000);
      break;
    }
    if (Cp < 0x80) {
      Out.push_back(uint8_t(Cp));
    } else if (Cp < 0x800) {
      Out.push_back(uint8_t(0xC0 | (Cp >> 6)));
      Out.push_back(uint8_t(0x80 | (Cp & 0x3f)));
    } else if (Cp < 0x10000) {
      Out.push_back(uint8_t(0xE0 | (Cp >> 12)));
      Out.push_back(uint8_t(0x80 | ((Cp >> 6) & 0x3f)));
      Out.push_back(uint8_t(0x80 | (Cp & 0x3f)));
    } else {
      Out.push_back(uint8_t(0xF0 | (Cp >> 18)));
      Out.push_back(uint8_t(0x80 | ((Cp >> 12) & 0x3f)));
      Out.push_back(uint8_t(0x80 | ((Cp >> 6) & 0x3f)));
      Out.push_back(uint8_t(0x80 | (Cp & 0x3f)));
    }
  }
  // Trim to N at a code-point boundary, then pad with ASCII.
  size_t Cut = N;
  while (Cut > 0 && Cut < Out.size() && (Out[Cut] & 0xC0) == 0x80)
    --Cut;
  Out.resize(Cut);
  Out.resize(N, 'a');
  return Out;
}

const GenTask kTasks[] = {
    {"fnv1a", randomBytes, genFnv1a, refFnv1a, false},
    {"utf8", utf8Bytes, genUtf8, refUtf8, false},
    {"upstr", asciiBytes, genUpstr, refUpstr, true},
    {"m3s", randomBytes, genM3s, refM3s, false},
    {"ip", randomBytes, genIp, refIp, false},
    {"fasta", dnaBytes, genFasta, refFasta, true},
    {"crc32", randomBytes, genCrc32, refCrc32, false},
};

uint64_t runOn(uint64_t (*Fn)(uint8_t *, size_t), const std::string &S) {
  std::vector<uint8_t> B(S.begin(), S.end());
  return Fn(B.data(), B.size());
}

/// Published check values and properties the method must have, on the
/// generated side (and on the handwritten side where a value is
/// published). Returns "" or the first violation.
std::string checkProperties(SeedRng &R) {
  const GenTask &Fnv = kTasks[0], &Utf8 = kTasks[1], &Up = kTasks[2],
                &Ip = kTasks[4], &Fasta = kTasks[5], &Crc = kTasks[6];
  for (auto *Fn : {Crc.Gen, Crc.Hand})
    if (runOn(Fn, "123456789") != 0xCBF43926u)
      return "CRC-32(\"123456789\") is not 0xCBF43926";
  for (auto *Fn : {Fnv.Gen, Fnv.Hand})
    if (runOn(Fn, "a") != 0xaf63dc4c8601ec8cull ||
        runOn(Fn, "foobar") != 0x85944171f73967e8ull)
      return "FNV-1a 64 differs from its published test vectors";
  // ASCII decodes to itself: no errors, xor of the bytes.
  std::vector<uint8_t> A = asciiBytes(R, 4096);
  uint64_t X = 0;
  for (uint8_t B : A)
    X ^= B;
  if (Utf8.Gen(A.data(), A.size()) != X)
    return "utf8 of an ASCII buffer is not its xor with no errors";
  // Verifying an IP checksum: the checksum over data + checksum is 0.
  std::vector<uint8_t> D = randomBytes(R, 1500);
  uint64_t C = Ip.Gen(D.data(), D.size());
  D.push_back(uint8_t(C >> 8));
  D.push_back(uint8_t(C));
  if (Ip.Gen(D.data(), D.size()) != 0)
    return "IP checksum does not verify over data + checksum";
  // Complementing IUPAC nucleotide codes twice is the identity.
  static const char Iupac[] = "ACGTMRWSYKVHDBN";
  std::vector<uint8_t> N = randomBytes(R, 4096), N0;
  for (uint8_t &B : N)
    B = uint8_t(Iupac[B % (sizeof(Iupac) - 1)]);
  N0 = N;
  Fasta.Gen(N.data(), N.size());
  if (N == N0)
    return "fasta complement left the buffer unchanged";
  Fasta.Gen(N.data(), N.size());
  if (N != N0)
    return "fasta complement applied twice is not the identity";
  // Upper-casing is idempotent.
  std::vector<uint8_t> U = asciiBytes(R, 4096);
  Up.Gen(U.data(), U.size());
  std::vector<uint8_t> U1 = U;
  Up.Gen(U.data(), U.size());
  if (U != U1)
    return "upstr is not idempotent";
  return "";
}

} // namespace

bool prepareGenInputs(uint64_t Seed, unsigned Buffers,
                      std::vector<GenInput> *Out, std::string *Why) {
  SeedRng R(Seed);
  if (std::string P = checkProperties(R); !P.empty()) {
    *Why = P;
    return false;
  }
  Out->clear();
  for (const GenTask &T : kTasks)
    for (unsigned B = 0; B < Buffers; ++B) {
      GenInput In;
      In.Task = &T;
      In.Bytes = T.Make(R, kGenBufSize);
      std::vector<uint8_t> Ref = In.Bytes;
      In.Ret = T.Hand(Ref.data(), Ref.size());
      if (T.Mutates)
        In.Expected = std::move(Ref);
      Out->push_back(std::move(In));
    }
  return true;
}

bool genOutputMatches(const GenInput &In, uint64_t Ret,
                      const std::vector<uint8_t> &Buf, std::string *Why) {
  if (Ret != In.Ret) {
    *Why = std::string(In.Task->Name) + ": returned a wrong word";
    return false;
  }
  if (In.Task->Mutates && Buf != In.Expected) {
    *Why = std::string(In.Task->Name) + ": wrong bytes in the buffer";
    return false;
  }
  return true;
}

double timePass(const GenInput &In, bool Generated, std::vector<uint8_t> &Buf,
                Outcome &O) {
  if (In.Task->Mutates)
    std::memcpy(Buf.data(), In.Bytes.data(), In.Bytes.size());
  uint8_t *P = In.Task->Mutates ? Buf.data()
                                : const_cast<uint8_t *>(In.Bytes.data());
  Clock::time_point T0 = Clock::now();
  uint64_t Ret = (Generated ? In.Task->Gen : In.Task->Hand)(P, kGenBufSize);
  double Ms = msSince(T0);
  ++O.Attempted;
  std::string Why;
  if (!genOutputMatches(In, Ret, In.Task->Mutates ? Buf : In.Expected, &Why))
    O.wrong(std::string(Generated ? "generated " : "handwritten ") + Why);
  return Ms;
}

Outcome runGeneratedCode(const Args &A) {
  Outcome O;
  constexpr unsigned kBuffers = 3;
  std::vector<GenInput> Inputs;
  std::string Why;
  if (!prepareGenInputs(A.Seed, kBuffers, &Inputs, &Why)) {
    O.Attempted = 1;
    O.wrong(Why);
    return O;
  }
  const size_t NTasks = std::size(kTasks);
  std::vector<uint8_t> Buf(kGenBufSize);
  const double Setup = setupSeconds(A);

  std::vector<std::vector<double>> Gen(NTasks), Hand(NTasks);
  const Clock::time_point End = Clock::now() + std::chrono::seconds(A.Seconds);
  for (unsigned Round = 0; Round == 0 || Clock::now() < End; ++Round) {
    for (size_t T = 0; T < NTasks; ++T) {
      const GenInput &In = Inputs[T * kBuffers + Round % kBuffers];
      // Alternate which side runs first, so neither always finds the
      // buffer warm in cache.
      bool GenFirst = Round % 2 == 0;
      for (bool Generated : {GenFirst, !GenFirst})
        (Generated ? Gen : Hand)[T].push_back(
            timePass(In, Generated, Buf, O));
    }
  }
  std::vector<double> P10, P50, Ratio;
  for (size_t T = 0; T < NTasks; ++T) {
    P10.push_back(quantile(Gen[T], 0.1));
    P50.push_back(median(Gen[T]));
    Ratio.push_back(median(Gen[T]) / median(Hand[T]));
  }
  const double Pass = geomean(P10);
  O.add("setup_s", Setup, "s");
  O.add("p10_ms", Pass, "ms");
  O.add("per_s", 1000.0 / Pass, "1/s");
  O.add("peak_rss_mib", selfPeakRssMib(), "MiB");
  std::fprintf(stderr,
               "perfbench generated-code: %zu rounds; 1 MiB pass p50 %.4f ms "
               "(geomean); generated/handwritten geomean %.3f\n",
               Gen[0].size(), geomean(P50), geomean(Ratio));
  return O;
}

} // namespace pb
