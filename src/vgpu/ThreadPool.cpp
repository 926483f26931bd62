//===- vgpu/ThreadPool.cpp ------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "vgpu/ThreadPool.h"

#include "support/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>

using namespace psg;

ThreadPool::ThreadPool(unsigned WorkerCount) {
  if (WorkerCount == 0) {
    WorkerCount = std::thread::hardware_concurrency();
    if (WorkerCount == 0)
      WorkerCount = 1;
  }
  Workers.reserve(WorkerCount);
  for (unsigned I = 0; I < WorkerCount; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::runChunks(unsigned Worker, size_t &DoneOut, double &BusyOut) {
  DoneOut = 0;
  BusyOut = 0.0;
  const FunctionRef<void(size_t, unsigned)> Body = Current.Body;
  const size_t Count = Current.Count;
  const size_t ChunkSize = Current.ChunkSize;
  const size_t NumChunks = Current.NumChunks;
  for (;;) {
    const size_t Chunk =
        Current.NextChunk.fetch_add(1, std::memory_order_relaxed);
    if (Chunk >= NumChunks)
      return;
    const size_t Begin = Chunk * ChunkSize;
    const size_t End = std::min(Count, Begin + ChunkSize);
    WallTimer BodyTimer;
    for (size_t I = Begin; I < End; ++I)
      Body(I, Worker);
    BusyOut += BodyTimer.seconds();
    DoneOut += End - Begin;
  }
}

void ThreadPool::workerLoop(unsigned Worker) {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    WorkReady.wait(Lock, [this] {
      return Stopping ||
             (HasJob && Current.NextChunk.load(std::memory_order_relaxed) <
                            Current.NumChunks);
    });
    if (Stopping)
      return;
    ++ActiveClaimers;
    Lock.unlock();
    size_t Done = 0;
    double Busy = 0.0;
    runChunks(Worker, Done, Busy);
    Lock.lock();
    --ActiveClaimers;
    Current.Done += Done;
    Current.BusySeconds += Busy;
    if (Current.Done == Current.Count && ActiveClaimers == 0)
      JobDone.notify_all();
  }
}

void ThreadPool::parallelFor(size_t Count,
                             FunctionRef<void(size_t, unsigned)> Body) {
  if (Count == 0)
    return;
  WallTimer JobTimer;
  double BusySeconds = 0.0;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    assert(!HasJob && "nested parallelFor is not supported");
    // Static chunking: a few chunks per participant amortizes the atomic
    // claim while still balancing uneven per-index costs.
    Current.Body = Body;
    Current.Count = Count;
    Current.ChunkSize = std::max<size_t>(1, Count / (4 * parallelism()));
    Current.NumChunks = (Count + Current.ChunkSize - 1) / Current.ChunkSize;
    Current.NextChunk.store(0, std::memory_order_relaxed);
    Current.Done = 0;
    Current.BusySeconds = 0.0;
    HasJob = true;
    WorkReady.notify_all();
    Lock.unlock();
    // The caller participates as the last worker index, then waits for
    // stragglers. The job may not be torn down until every participant
    // has left runChunks (ActiveClaimers drains to zero).
    size_t CallerDone = 0;
    double CallerBusy = 0.0;
    runChunks(numWorkers(), CallerDone, CallerBusy);
    Lock.lock();
    Current.Done += CallerDone;
    Current.BusySeconds += CallerBusy;
    JobDone.wait(Lock, [this] {
      return Current.Done == Current.Count && ActiveClaimers == 0;
    });
    HasJob = false;
    BusySeconds = Current.BusySeconds;
  }
  // Worker-utilization accounting, recorded outside the pool lock.
  const double WallSeconds = JobTimer.seconds();
  MetricsRegistry &M = metrics();
  M.counter("psg.vgpu.pool.jobs").add();
  M.counter("psg.vgpu.pool.tasks").add(Count);
  Gauge &Busy = M.gauge("psg.vgpu.pool.busy_s");
  Gauge &Wall = M.gauge("psg.vgpu.pool.wall_s");
  Busy.add(BusySeconds);
  Wall.add(WallSeconds);
  // Utilization covers every job since the last metrics reset, not just
  // this one. Busy time sums every participant, the caller included, so
  // the capacity it is measured against counts the caller too.
  const double Capacity = Wall.value() * parallelism();
  if (Capacity > 0.0)
    M.gauge("psg.vgpu.pool.utilization")
        .set(std::min(1.0, Busy.value() / Capacity));
}

void ThreadPool::parallelFor(size_t Count, FunctionRef<void(size_t)> Body) {
  parallelFor(Count, [&Body](size_t Index, unsigned) { Body(Index); });
}
