//===- perfbench/src/GenCode.h - Generated and handwritten C ----*- C++ -*-===//
//
// Part of relc's benchmark (perfbench/README.md).
//
// The seven programs' generated C (relc_generated.h) and handwritten
// references (bench/ref/ref_impls.h) behind one signature, their seeded
// inputs, and the output check the generated-code workload, the traced
// run and the self-test share.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENCODE_H
#define PERFBENCH_GENCODE_H

#include "Common.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

constexpr size_t kGenBufSize = size_t(1) << 20; // 1 MiB, as in Figure 2.

struct GenTask {
  const char *Name;
  std::vector<uint8_t> (*Make)(SeedRng &, size_t);
  /// One pass over the buffer; returns the program's output word (0 for
  /// the in-place programs, whose output is the buffer).
  uint64_t (*Gen)(uint8_t *, size_t);
  uint64_t (*Hand)(uint8_t *, size_t);
  bool Mutates;
};

/// One seeded buffer and the handwritten reference's answer on it.
struct GenInput {
  const GenTask *Task = nullptr;
  std::vector<uint8_t> Bytes;
  uint64_t Ret = 0;
  std::vector<uint8_t> Expected; ///< Output buffer, in-place programs.
};

/// Checks published values and properties, then makes \p Buffers inputs
/// per program (task-major order) with their reference answers.
bool prepareGenInputs(uint64_t Seed, unsigned Buffers,
                      std::vector<GenInput> *Out, std::string *Why);

/// True iff a pass over \p In returned \p Ret and left \p Buf as the
/// reference did.
bool genOutputMatches(const GenInput &In, uint64_t Ret,
                      const std::vector<uint8_t> &Buf, std::string *Why);

/// Times one pass of the generated (or handwritten) code over \p In,
/// checking its output; \p Buf is the work buffer for the in-place programs.
double timePass(const GenInput &In, bool Generated, std::vector<uint8_t> &Buf,
                Outcome &O);

} // namespace pb

#endif // PERFBENCH_GENCODE_H
