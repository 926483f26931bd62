//===- perfbench/src/Spans.cpp --------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

using namespace perfbench;

SpanLog::Scope::Scope(SpanLog *Log, const char *Name) : Log(Log), Name(Name) {
  if (Log)
    StartUs = psg::trace().nowUs();
}

SpanLog::Scope::~Scope() {
  if (!Log)
    return;
  Span S;
  S.Name = Name;
  S.StartUs = StartUs;
  S.EndUs = psg::trace().nowUs();
  S.Thread = psg::TraceCollector::currentThreadId();
  S.Rep = Log->CurrentRep;
  Log->Spans.push_back(std::move(S));
}

namespace {
/// Length of the union of \p Intervals clipped to [Lo, Hi].
double coveredUs(std::vector<std::pair<double, double>> &Intervals, double Lo,
                 double Hi) {
  std::sort(Intervals.begin(), Intervals.end());
  double Covered = 0.0, CurLo = Lo, CurHi = Lo;
  for (auto [A, B] : Intervals) {
    A = std::max(A, Lo);
    B = std::min(B, Hi);
    if (B <= A)
      continue;
    if (A > CurHi) {
      Covered += CurHi - CurLo;
      CurLo = A;
      CurHi = B;
    } else {
      CurHi = std::max(CurHi, B);
    }
  }
  return Covered + (CurHi - CurLo);
}
} // namespace

void SpanLog::finish(const std::vector<psg::TraceEvent> &LibraryEvents) {
  const uint32_t MainThread =
      Spans.empty() ? 0 : Spans.front().Thread;
  for (const psg::TraceEvent &E : LibraryEvents) {
    if (E.DurationUs < 0.0)
      continue;
    Span S;
    S.Name = E.Name;
    S.StartUs = E.TimestampUs;
    S.EndUs = E.TimestampUs + E.DurationUs;
    S.Thread = E.ThreadId;
    Spans.push_back(std::move(S));
  }
  // Parents open no later than their children and, on a tie, last longer.
  std::sort(Spans.begin(), Spans.end(), [](const Span &A, const Span &B) {
    if (A.StartUs != B.StartUs)
      return A.StartUs < B.StartUs;
    return A.EndUs > B.EndUs;
  });

  // Same-thread nesting: a stack sweep per thread.
  std::map<uint32_t, std::vector<int>> Open;
  std::vector<int> Kernels; // Main-thread kernel launches, by start.
  for (int I = 0; I < static_cast<int>(Spans.size()); ++I) {
    Span &S = Spans[I];
    std::vector<int> &Stack = Open[S.Thread];
    while (!Stack.empty() && Spans[Stack.back()].EndUs < S.EndUs)
      Stack.pop_back();
    if (!Stack.empty())
      S.Parent = Stack.back();
    Stack.push_back(I);
    if (S.Thread == MainThread && S.Name.rfind("vgpu.kernel.", 0) == 0)
      Kernels.push_back(I);
  }
  // Pool workers have no same-thread parent: they ran under the kernel
  // launch whose interval contains theirs.
  for (int I = 0; I < static_cast<int>(Spans.size()); ++I) {
    Span &S = Spans[I];
    if (S.Parent >= 0 || S.Thread == MainThread)
      continue;
    auto It = std::upper_bound(
        Kernels.begin(), Kernels.end(), S.StartUs,
        [this](double T, int K) { return T < Spans[K].StartUs; });
    if (It != Kernels.begin() && Spans[*(It - 1)].EndUs >= S.EndUs)
      S.Parent = *(It - 1);
  }
  // Parents precede children in this order, so one pass inherits reps.
  for (Span &S : Spans)
    if (S.Rep < 0 && S.Parent >= 0)
      S.Rep = Spans[S.Parent].Rep;

  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[S.Parent].emplace_back(S.StartUs, S.EndUs);
  for (size_t I = 0; I < Spans.size(); ++I)
    Spans[I].SelfUs =
        Spans[I].durationUs() -
        coveredUs(Children[I], Spans[I].StartUs, Spans[I].EndUs);
}

std::map<std::string, double> SpanLog::selfSecondsByName() const {
  std::map<std::string, double> Out;
  for (const Span &S : Spans)
    if (S.Rep >= 0)
      Out[S.Name] += S.SelfUs * 1e-6;
  return Out;
}

std::map<std::string, double> SpanLog::totalSecondsByName() const {
  std::map<std::string, double> Out;
  for (const Span &S : Spans)
    if (S.Rep >= 0)
      Out[S.Name] += S.durationUs() * 1e-6;
  return Out;
}

std::vector<double> SpanLog::durationsOf(const std::string &Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Rep >= 0 && S.Name == Name)
      Out.push_back(S.durationUs() * 1e-6);
  return Out;
}

bool SpanLog::writeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"thread\":%u,\"parent\":%d,\"rep\":%d,"
                 "\"self_us\":%.3f}%s\n",
                 I, S.Name.c_str(), S.StartUs, S.EndUs, S.Thread, S.Parent,
                 S.Rep, S.SelfUs, I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}
