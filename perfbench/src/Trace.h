//===- perfbench/src/Trace.h - Spans and allocation counts ------*- C++ -*-===//
//
// Part of relc's benchmark (perfbench/README.md).
//
// The traced run records one span around every public call it makes into
// relc: name, start, end, parent, the program or request it served, and
// the heap allocations made while it was open. Spans stay in memory and
// are written once, at the end, as Chrome trace-event JSON (open it in
// Perfetto or chrome://tracing). A layer's self time is its duration
// minus the part its child spans cover.
//
// Allocations are counted by this binary's replacement operator new,
// which counts only while a trace is recording: timed runs never count.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Heap allocations made by this process while counting was on.
uint64_t allocCount();
void setAllocCounting(bool On);

struct Span {
  std::string Name; ///< Layer, e.g. "tv" or "pipeline.cache_lookup".
  std::string Id;   ///< Program or request the call served.
  int64_t StartNs = 0, EndNs = 0;
  int Parent = -1;
  uint64_t Allocs = 0;
};

/// Single-threaded span recorder (the traced run calls layers serially).
class Tracer {
public:
  /// A disabled tracer records nothing (begin returns -1): the traced run
  /// repeats its layer walk with recording off to price the recorder.
  void setEnabled(bool On) { Enabled = On; }

  int begin(const std::string &Name, const std::string &Id);
  void end(int Idx);

  const std::vector<Span> &spans() const { return Spans; }

  /// Per-name totals over the spans [From, To): self ms, self
  /// allocations, and count.
  struct Totals {
    double SelfMs = 0;
    double TotalMs = 0;
    uint64_t Allocs = 0;
    unsigned Count = 0;
  };
  std::map<std::string, Totals> totals(size_t From = 0,
                                       size_t To = SIZE_MAX) const;

  /// Writes the Chrome trace-event JSON ("X" complete events, µs).
  bool writeChromeJson(const std::string &Path) const;

private:
  bool Enabled = true;
  std::vector<Span> Spans;
  std::vector<int> Open;
  std::vector<uint64_t> BeginAllocs;
};

/// RAII span.
class Scoped {
public:
  Scoped(Tracer &T, const std::string &Name, const std::string &Id)
      : T(T), Idx(T.begin(Name, Id)) {}
  ~Scoped() { T.end(Idx); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Tracer &T;
  int Idx;
};

} // namespace pb

#endif // PERFBENCH_TRACE_H
