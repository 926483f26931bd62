//===- device/AsyncHostRuntime.cpp ----------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "device/AsyncHostRuntime.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace psg;

//===----------------------------------------------------------------------===//
// AsyncHostRuntime
//===----------------------------------------------------------------------===//

AsyncHostRuntime::AsyncHostRuntime(DeviceSpec Spec, unsigned HostWorkers)
    : Device(std::move(Spec), HostWorkers) {}

AsyncHostRuntime::~AsyncHostRuntime() {
  // Streams must already be destroyed (they reference this runtime),
  // but a drain here is harmless.
  synchronize();
}

std::unique_ptr<Stream> AsyncHostRuntime::createStream(std::string Name) {
  Counters.StreamsCreated.fetch_add(1, std::memory_order_relaxed);
  metrics().counter("psg.device.streams").add();
  auto S = std::make_unique<AsyncStream>(*this, std::move(Name));
  std::lock_guard<std::mutex> Lock(StreamsMx);
  LiveStreams.push_back(S.get());
  return S;
}

std::unique_ptr<Event> AsyncHostRuntime::createEvent() {
  return std::make_unique<AsyncEvent>();
}

std::unique_ptr<DeviceBuffer> AsyncHostRuntime::allocate(size_t Bytes) {
  Counters.recordAllocation(Bytes);
  MetricsRegistry &M = metrics();
  M.counter("psg.device.buffers").add();
  M.counter("psg.device.alloc_bytes").add(Bytes);
  return std::make_unique<AsyncBuffer>(*this, Bytes);
}

LaunchRecord
AsyncHostRuntime::launchKernel(const LaunchConfig &Config,
                               FunctionRef<void(KernelContext &)> Body) {
  return runGrid(Config, Body);
}

LaunchRecord
AsyncHostRuntime::runGrid(const LaunchConfig &Config,
                          FunctionRef<void(KernelContext &)> Body) {
  Counters.KernelLaunches.fetch_add(1, std::memory_order_relaxed);
  metrics().counter("psg.device.kernel_launches").add();
  std::lock_guard<std::mutex> Lock(LaunchMx);
  return Device.launchKernel(Config.KernelName, Config.GridThreads,
                             Config.BlockDim, Body);
}

void AsyncHostRuntime::synchronize() {
  std::vector<AsyncStream *> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(StreamsMx);
    Snapshot = LiveStreams;
  }
  for (AsyncStream *S : Snapshot)
    S->synchronize();
}

void AsyncHostRuntime::unregisterStream(AsyncStream *S) {
  std::lock_guard<std::mutex> Lock(StreamsMx);
  LiveStreams.erase(std::remove(LiveStreams.begin(), LiveStreams.end(), S),
                    LiveStreams.end());
}

AsyncBuffer::~AsyncBuffer() { Parent.Counters.recordFree(Storage.size()); }

//===----------------------------------------------------------------------===//
// AsyncStream
//===----------------------------------------------------------------------===//

AsyncStream::AsyncStream(AsyncHostRuntime &Parent, std::string Name)
    : Parent(Parent), StreamName(std::move(Name)),
      Worker([this] { workerLoop(); }) {}

AsyncStream::~AsyncStream() {
  synchronize();
  {
    std::lock_guard<std::mutex> Lock(Mx);
    ShuttingDown = true;
  }
  HasWork.notify_all();
  Worker.join();
  Parent.unregisterStream(this);
}

void AsyncStream::workerLoop() {
  for (;;) {
    std::function<void()> Op;
    {
      std::unique_lock<std::mutex> Lock(Mx);
      HasWork.wait(Lock, [this] { return ShuttingDown || !Ops.empty(); });
      if (Ops.empty())
        return; // Shutting down with a drained queue.
      Op = std::move(Ops.front());
      Ops.pop_front();
      Busy = true;
    }
    // Run outside the lock so enqueues keep flowing. Ops must not
    // throw: a pipeline stage that can fail catches internally and
    // reports through its own channel (the executor's Failed flag, the
    // engine's exception slot).
    Op();
    {
      std::lock_guard<std::mutex> Lock(Mx);
      Busy = false;
      if (Ops.empty())
        Idle.notify_all();
    }
  }
}

void AsyncStream::enqueue(std::function<void()> Op) {
  {
    std::lock_guard<std::mutex> Lock(Mx);
    assert(!ShuttingDown && "enqueue on a destroyed stream");
    Ops.push_back(std::move(Op));
  }
  HasWork.notify_one();
}

void AsyncStream::synchronize() {
  std::unique_lock<std::mutex> Lock(Mx);
  Idle.wait(Lock, [this] { return Ops.empty() && !Busy; });
}

void AsyncStream::upload(DeviceBuffer &Dst, const void *Src, size_t Bytes,
                         size_t DstOffsetBytes) {
  assert(DstOffsetBytes + Bytes <= Dst.sizeBytes() &&
         "upload outside the buffer");
  DeviceBuffer *DstP = &Dst;
  enqueue([this, DstP, Src, Bytes, DstOffsetBytes] {
    if (Bytes != 0)
      std::memcpy(static_cast<unsigned char *>(DstP->deviceData()) +
                      DstOffsetBytes,
                  Src, Bytes);
    Parent.Counters.Uploads.fetch_add(1, std::memory_order_relaxed);
    Parent.Counters.UploadBytes.fetch_add(Bytes, std::memory_order_relaxed);
    metrics().counter("psg.device.upload_bytes").add(Bytes);
  });
}

void AsyncStream::download(const DeviceBuffer &Src, void *Dst, size_t Bytes,
                           size_t SrcOffsetBytes) {
  assert(SrcOffsetBytes + Bytes <= Src.sizeBytes() &&
         "download outside the buffer");
  const DeviceBuffer *SrcP = &Src;
  enqueue([this, SrcP, Dst, Bytes, SrcOffsetBytes] {
    if (Bytes != 0)
      std::memcpy(Dst,
                  static_cast<const unsigned char *>(SrcP->deviceData()) +
                      SrcOffsetBytes,
                  Bytes);
    Parent.Counters.Downloads.fetch_add(1, std::memory_order_relaxed);
    Parent.Counters.DownloadBytes.fetch_add(Bytes, std::memory_order_relaxed);
    metrics().counter("psg.device.download_bytes").add(Bytes);
  });
}

LaunchRecord AsyncStream::launch(const LaunchConfig &Config,
                                 std::function<void(KernelContext &)> Body) {
  enqueue([this, Config, Body = std::move(Body)] {
    Parent.runGrid(Config, [&Body](KernelContext &Ctx) { Body(Ctx); });
  });
  // The caller gets the geometry predicted from the configuration —
  // identical to what the executed grid reports except for child-grid
  // counts, which land in deviceCounters() once the grid retires.
  LaunchRecord Record;
  Record.KernelName = Config.KernelName;
  Record.LogicalThreads = Config.GridThreads;
  Record.Blocks =
      Config.BlockDim ? (Config.GridThreads + Config.BlockDim - 1) /
                            Config.BlockDim
                      : 0;
  unsigned WarpSize = Parent.spec().WarpSize ? Parent.spec().WarpSize : 32;
  Record.Warps = (Config.GridThreads + WarpSize - 1) / WarpSize;
  return Record;
}

void AsyncStream::hostTask(const std::string &Name,
                           std::function<void()> Task) {
  (void)Name;
  enqueue([this, Task = std::move(Task)] {
    Task();
    Parent.Counters.HostTasks.fetch_add(1, std::memory_order_relaxed);
    metrics().counter("psg.device.host_tasks").add();
  });
}

void AsyncStream::record(Event &E) {
  auto &AE = static_cast<AsyncEvent &>(E);
  // Issue the ticket at enqueue time: recorded() flips immediately and
  // a wait enqueued after this call — on any stream — targets at least
  // this position (CUDA's record/query/wait ordering). The op shares
  // ownership of the tag state so it stays valid even if the event
  // object is destroyed before the op executes, and notifies under the
  // lock so no waiter can observe completion and free the state while
  // the broadcast is still touching it.
  uint64_t Ticket = AE.St->Tickets.fetch_add(1, std::memory_order_acq_rel) + 1;
  Parent.Counters.EventsRecorded.fetch_add(1, std::memory_order_relaxed);
  metrics().counter("psg.device.events_recorded").add();
  enqueue([St = AE.St, Ticket] {
    std::lock_guard<std::mutex> Lock(St->Mx);
    if (Ticket > St->Completed)
      St->Completed = Ticket;
    St->Cv.notify_all();
  });
}

void AsyncStream::wait(const Event &E) {
  const auto &AE = static_cast<const AsyncEvent &>(E);
  Parent.Counters.EventWaits.fetch_add(1, std::memory_order_relaxed);
  metrics().counter("psg.device.event_waits").add();
  // Capture the event position visible now; a never-recorded event is
  // a defined no-op (CUDA semantics).
  uint64_t Target = AE.St->Tickets.load(std::memory_order_acquire);
  if (Target == 0)
    return;
  enqueue([St = AE.St, Target] {
    std::unique_lock<std::mutex> Lock(St->Mx);
    St->Cv.wait(Lock, [&St, Target] { return St->Completed >= Target; });
  });
}
