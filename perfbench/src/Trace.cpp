//===- perfbench/src/Trace.cpp - Spans and allocation counts --------------===//
//
// Part of relc's benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Common.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

namespace {
std::atomic<bool> Counting{false};
std::atomic<uint64_t> Allocs{0};
} // namespace

// Replacement global allocation: one relaxed flag load per allocation when
// not counting. The array and nothrow forms forward here in libstdc++.
void *operator new(std::size_t N) {
  if (Counting.load(std::memory_order_relaxed))
    Allocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

namespace pb {

uint64_t allocCount() { return Allocs.load(std::memory_order_relaxed); }
void setAllocCounting(bool On) {
  Counting.store(On, std::memory_order_relaxed);
}

int Tracer::begin(const std::string &Name, const std::string &Id) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Id = Id;
  S.Parent = Open.empty() ? -1 : Open.back();
  int Idx = int(Spans.size());
  Spans.push_back(std::move(S));
  BeginAllocs.push_back(0);
  Open.push_back(Idx);
  // Take the clock and the counter last, so the recorder's own
  // bookkeeping above is outside the span.
  BeginAllocs[Idx] = allocCount();
  Spans[Idx].StartNs = monoNs();
  return Idx;
}

void Tracer::end(int Idx) {
  if (Idx < 0)
    return;
  int64_t Now = monoNs();
  uint64_t A = allocCount();
  Span &S = Spans[size_t(Idx)];
  S.EndNs = Now;
  S.Allocs = A - BeginAllocs[size_t(Idx)];
  if (!Open.empty() && Open.back() == Idx)
    Open.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals(size_t From,
                                                     size_t To) const {
  To = std::min(To, Spans.size());
  // Child coverage per parent: spans are properly nested (one thread,
  // RAII), so the children's durations never overlap each other.
  std::vector<double> ChildMs(Spans.size(), 0.0);
  std::vector<uint64_t> ChildAllocs(Spans.size(), 0);
  for (size_t I = From; I < To; ++I) {
    const Span &S = Spans[I];
    if (S.Parent >= 0) {
      ChildMs[size_t(S.Parent)] += double(S.EndNs - S.StartNs) / 1e6;
      ChildAllocs[size_t(S.Parent)] += S.Allocs;
    }
  }
  std::map<std::string, Totals> Out;
  for (size_t I = From; I < To; ++I) {
    const Span &S = Spans[I];
    double Ms = double(S.EndNs - S.StartNs) / 1e6;
    Totals &T = Out[S.Name];
    T.TotalMs += Ms;
    T.SelfMs += std::max(0.0, Ms - ChildMs[I]);
    T.Allocs += S.Allocs - std::min(S.Allocs, ChildAllocs[I]);
    ++T.Count;
  }
  return Out;
}

namespace {
std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    O += C;
  }
  return O;
}
} // namespace

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  int64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  Out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "\"ts\": %.3f, \"dur\": %.3f",
                  double(S.StartNs - Base) / 1e3,
                  double(S.EndNs - S.StartNs) / 1e3);
    Out << (I ? ",\n" : "") << "{\"name\": \"" << jsonEscape(S.Name)
        << "\", \"cat\": \"relc\", \"ph\": \"X\", " << Buf
        << ", \"pid\": 1, \"tid\": 1, \"args\": {\"id\": \""
        << jsonEscape(S.Id) << "\", \"span\": " << I
        << ", \"parent\": " << S.Parent << ", \"allocs\": " << S.Allocs
        << "}}";
  }
  Out << "\n]}\n";
  return bool(Out);
}

} // namespace pb
