//===- vgpu/ThreadPool.h - Host worker pool ---------------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool. Each GPU personality owns one and runs
/// every batch as one parallelFor, one index per simulation; on a
/// single-core host it degenerates to serial execution while preserving
/// the batch semantics and determinism of the results.
///
/// Indices are claimed in statically sized chunks off an atomic cursor
/// (one fetch_add per chunk) instead of one mutex round-trip per index,
/// and each participant is handed a stable worker index so callers can
/// keep per-worker scratch (solver workspaces, compiled-model views)
/// without thread-local lookups.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_VGPU_THREADPOOL_H
#define PSG_VGPU_THREADPOOL_H

#include "support/FunctionRef.h"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace psg {

/// Fixed pool executing index-space loops.
class ThreadPool {
public:
  /// Creates \p Workers threads (0 selects the hardware concurrency).
  explicit ThreadPool(unsigned Workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned numWorkers() const { return static_cast<unsigned>(Workers.size()); }

  /// Number of distinct worker indices parallelFor bodies may observe:
  /// the pool threads (0 .. numWorkers()-1) plus the calling thread,
  /// which participates as worker numWorkers().
  unsigned parallelism() const { return numWorkers() + 1; }

  /// Runs Body(0..Count-1, Worker), distributing indices over the workers,
  /// and blocks until all indices completed. Body must be thread-safe.
  /// Each invocation's Worker argument is < parallelism() and identifies
  /// the participant executing it, so Body may index per-worker state
  /// without synchronization. Body is a non-owning FunctionRef — no
  /// allocation per job — which is safe because parallelFor blocks until
  /// every participant has left the body.
  void parallelFor(size_t Count, FunctionRef<void(size_t, unsigned)> Body);

  /// Worker-index-oblivious convenience overload.
  void parallelFor(size_t Count, FunctionRef<void(size_t)> Body);

private:
  struct Job {
    FunctionRef<void(size_t, unsigned)> Body;
    size_t Count = 0;
    size_t ChunkSize = 1;
    size_t NumChunks = 0;
    std::atomic<size_t> NextChunk{0};
    size_t Done = 0;          ///< Guarded by Mutex.
    double BusySeconds = 0.0; ///< Summed body execution time (all workers).
  };

  std::vector<std::thread> Workers;
  std::mutex Mutex;
  std::condition_variable WorkReady;
  std::condition_variable JobDone;
  Job Current;
  bool HasJob = false;
  bool Stopping = false;
  /// Participants currently claiming chunks outside the lock; a new job
  /// may only be installed once this drops to zero.
  unsigned ActiveClaimers = 0;

  void workerLoop(unsigned Worker);
  /// Claims and runs chunks of the current job without holding the pool
  /// lock; returns the indices completed and the body execution time.
  void runChunks(unsigned Worker, size_t &DoneOut, double &BusyOut);
};

} // namespace psg

#endif // PSG_VGPU_THREADPOOL_H
