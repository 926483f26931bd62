//===- support/Metrics.h - Process-wide metrics registry --------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide metrics registry: named counters, gauges, and
/// histograms with thread-safe (relaxed-atomic) updates. The hot layers
/// (engine dispatch, solvers, thread pool, analysis drivers) record into
/// the registry; a MetricsSnapshot freezes all values for reports and
/// JSON serialization.
///
/// Registration is mutex-protected and returns references that stay
/// valid for the lifetime of the process (reset() zeroes values but
/// never unregisters), so hot paths can look a metric up once and then
/// update it lock-free.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_SUPPORT_METRICS_H
#define PSG_SUPPORT_METRICS_H

#include "support/Error.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace psg {

/// Monotonic event counter.
class Counter {
public:
  /// Adds \p N; safe to call concurrently.
  void add(uint64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }

  uint64_t value() const { return Value.load(std::memory_order_relaxed); }

  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// Last-value gauge that also supports accumulation (e.g. busy seconds).
class Gauge {
public:
  /// Replaces the value; safe to call concurrently.
  void set(double V) { Value.store(V, std::memory_order_relaxed); }

  /// Adds \p Delta atomically (CAS loop; no fetch_add on doubles pre-C++20
  /// library support).
  void add(double Delta) {
    double Old = Value.load(std::memory_order_relaxed);
    while (!Value.compare_exchange_weak(Old, Old + Delta,
                                        std::memory_order_relaxed)) {
    }
  }

  double value() const { return Value.load(std::memory_order_relaxed); }

  void reset() { Value.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> Value{0.0};
};

/// Exponentially-bucketed histogram over positive samples (timings,
/// sizes). Bucket I covers (2^(I-1-Offset), 2^(I-Offset)] seconds/units
/// with Offset = 30, spanning ~1 ns to ~2^33; out-of-range samples clamp
/// to the end buckets. Also tracks count/sum/min/max.
class Histogram {
public:
  static constexpr size_t NumBuckets = 64;
  /// Exponent offset: bucket 0's upper bound is 2^-30 (~1 ns).
  static constexpr int ExponentOffset = 30;

  /// Upper (inclusive) bound of bucket \p Index.
  static double bucketUpperBound(size_t Index);

  /// Bucket index receiving \p Sample.
  static size_t bucketIndex(double Sample);

  /// Records one sample; safe to call concurrently.
  void record(double Sample);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }

  void reset();

private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0.0};
  std::atomic<double> Min{0.0};
  std::atomic<double> Max{0.0};
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
};

/// Frozen value of one counter.
struct CounterSample {
  std::string Name;
  uint64_t Value = 0;
};

/// Frozen value of one gauge.
struct GaugeSample {
  std::string Name;
  double Value = 0.0;
};

/// Frozen state of one histogram. Buckets are sparse (index, count)
/// pairs in increasing index order; bounds follow
/// Histogram::bucketUpperBound.
struct HistogramSample {
  std::string Name;
  uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  std::vector<std::pair<uint32_t, uint64_t>> Buckets;

  /// Mean sample, 0 when empty.
  double mean() const {
    return Count ? Sum / static_cast<double>(Count) : 0.0;
  }
};

/// A frozen view of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> Counters;
  std::vector<GaugeSample> Gauges;
  std::vector<HistogramSample> Histograms;

  /// Value of the named counter, 0 when absent.
  uint64_t counterValue(const std::string &Name) const;
  /// Value of the named gauge, 0 when absent.
  double gaugeValue(const std::string &Name) const;
  /// The named histogram, or nullptr when absent.
  const HistogramSample *histogram(const std::string &Name) const;
};

/// The process-wide registry. Access through metrics().
class MetricsRegistry {
public:
  /// Returns (creating on first use) the named counter.
  Counter &counter(const std::string &Name);
  /// Returns (creating on first use) the named gauge.
  Gauge &gauge(const std::string &Name);
  /// Returns (creating on first use) the named histogram.
  Histogram &histogram(const std::string &Name);

  /// Freezes all current values.
  MetricsSnapshot snapshot() const;

  /// Zeroes every metric; registrations (and references) stay valid.
  void reset();

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// The process-wide registry instance.
MetricsRegistry &metrics();

/// Renders \p Snapshot as the psg-metrics-v1 JSON document.
std::string metricsSnapshotToJson(const MetricsSnapshot &Snapshot);

/// Parses a psg-metrics-v1 JSON document back into a snapshot.
ErrorOr<MetricsSnapshot> metricsSnapshotFromJson(const std::string &Json);

} // namespace psg

#endif // PSG_SUPPORT_METRICS_H
