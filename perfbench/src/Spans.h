//===- perfbench/src/Spans.h - Benchmark-side span log ----------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span log. The benchmark opens its own spans around
/// every public call it makes; the library's trace() collector adds its
/// spans (engine.*, vgpu.kernel.*, ode.integrate.*). Both use the
/// collector's clock. After the run the two sets are merged, each span is
/// linked to its parent (the innermost span containing it on the same
/// thread, or for a pool worker the kernel launch it ran under) and to
/// the repetition of its root, and self time is the duration minus the
/// union of the intervals its children cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "support/Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded interval, in microseconds of the trace() clock.
struct Span {
  std::string Name;
  double StartUs = 0.0;
  double EndUs = 0.0;
  uint32_t Thread = 0;
  int Parent = -1; ///< Index into SpanLog::spans(); -1 for a root.
  int Rep = -1;    ///< Repetition id, inherited from the root.
  double SelfUs = 0.0;

  double durationUs() const { return EndUs - StartUs; }
};

/// Spans opened by the benchmark (from one thread) plus, after finish(),
/// the library's. Kept in memory and written out at exit.
class SpanLog {
public:
  /// RAII span on the calling thread; a no-op when the log is null.
  class Scope {
  public:
    Scope(SpanLog *Log, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *Log;
    const char *Name;
    double StartUs = 0.0;
  };

  /// Sets the repetition id recorded on spans opened from now on.
  void beginRep(int Rep) { CurrentRep = Rep; }

  /// Merges the library's trace events, then links parents, repetitions
  /// and self times. Call once, after tracing has stopped.
  void finish(const std::vector<psg::TraceEvent> &LibraryEvents);

  const std::vector<Span> &spans() const { return Spans; }

  /// Sum of self seconds per span name.
  std::map<std::string, double> selfSecondsByName() const;

  /// Sum of durations (seconds) per span name.
  std::map<std::string, double> totalSecondsByName() const;

  /// Durations (seconds) of every span named \p Name.
  std::vector<double> durationsOf(const std::string &Name) const;

  /// Writes the spans as a JSON array; returns false on I/O failure.
  bool writeJson(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  int CurrentRep = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
