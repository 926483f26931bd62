//===- device/AsyncHostRuntime.h - Truly async host runtime -----*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The asynchronous implementation of the device runtime over the same
/// modeled vgpu::VirtualDevice as HostRuntime. Where HostRuntime's
/// streams complete every op at enqueue, AsyncHostRuntime streams are
/// worker-thread-backed FIFO queues: enqueue returns immediately and
/// the op runs later on the stream's own thread, so uploads, kernel
/// stages and downloads on different streams genuinely overlap in wall
/// clock. Events are epoch-tagged condition waits — record() stamps the
/// event with a fresh ticket at enqueue and the executed op publishes
/// completion; wait() captures the newest ticket at enqueue (zero
/// tickets = never recorded = no-op, CUDA semantics) and blocks the
/// waiting stream's worker until that ticket completes, which also
/// carries the happens-before edge TSan checks.
///
/// Kernel grids — stream launches and the blocking default-stream
/// path — are serialized on one mutex: the modeled device has a single
/// host pool, exactly as a real GPU serializes grids that saturate it.
/// Numerical results stay bit-exact with HostRuntime because the same
/// kernels run on the same VirtualDevice; only the host-side schedule
/// changes.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_DEVICE_ASYNCHOSTRUNTIME_H
#define PSG_DEVICE_ASYNCHOSTRUNTIME_H

#include "device/DeviceRuntime.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace psg {

class AsyncStream;

/// DeviceRuntime with worker-thread streams.
class AsyncHostRuntime final : public DeviceRuntime {
public:
  /// \p HostWorkers = 0 uses the hardware concurrency.
  explicit AsyncHostRuntime(DeviceSpec Spec, unsigned HostWorkers = 0);
  ~AsyncHostRuntime() override;

  const char *name() const override { return "host-async"; }
  bool asynchronous() const override { return true; }
  const DeviceSpec &spec() const override { return Device.spec(); }
  unsigned hostParallelism() const override {
    return Device.hostParallelism();
  }

  std::unique_ptr<Stream> createStream(std::string Name) override;
  std::unique_ptr<Event> createEvent() override;
  std::unique_ptr<DeviceBuffer> allocate(size_t Bytes) override;

  LaunchRecord launchKernel(const LaunchConfig &Config,
                            FunctionRef<void(KernelContext &)> Body) override;

  /// Drains every live stream's queue.
  void synchronize() override;

  const DeviceCounters &deviceCounters() const override {
    return Device.counters();
  }
  RuntimeCounters counters() const override { return Counters.snapshot(); }

  /// The wrapped virtual device (cost-model calibration paths).
  VirtualDevice &virtualDevice() { return Device; }

private:
  friend class AsyncStream;
  friend class AsyncBuffer;

  /// All grids funnel through here: one grid at a time on the shared
  /// host pool.
  LaunchRecord runGrid(const LaunchConfig &Config,
                       FunctionRef<void(KernelContext &)> Body);

  void unregisterStream(AsyncStream *S);

  VirtualDevice Device;
  AtomicRuntimeCounters Counters;

  std::mutex LaunchMx; ///< Serializes kernel grids.
  std::mutex StreamsMx;
  std::vector<AsyncStream *> LiveStreams; ///< Guarded by StreamsMx.
};

/// Host-memory "device memory", zero-filled at allocation.
class AsyncBuffer final : public DeviceBuffer {
public:
  AsyncBuffer(AsyncHostRuntime &Parent, size_t Bytes)
      : Parent(Parent), Storage(Bytes, 0) {}
  ~AsyncBuffer() override;

  size_t sizeBytes() const override { return Storage.size(); }
  void *deviceData() override { return Storage.data(); }

private:
  AsyncHostRuntime &Parent;
  std::vector<unsigned char> Storage;
};

/// Epoch-tagged event. Tickets are issued at record-enqueue time and
/// completed when the recording op executes; recorded() is true from
/// the moment a record was enqueued (the cudaEventRecord analogy).
///
/// The tag state is shared-owned: stream ops capture it by value, so
/// destroying the event while a record/wait op is still in flight is
/// defined (the CUDA contract — cudaEventDestroy with pending work
/// releases resources only once the work retires).
class AsyncEvent final : public Event {
public:
  bool recorded() const override {
    return St->Tickets.load(std::memory_order_acquire) > 0;
  }

private:
  friend class AsyncStream;
  struct State {
    std::atomic<uint64_t> Tickets{0}; ///< Newest issued ticket.
    std::mutex Mx;
    std::condition_variable Cv;
    uint64_t Completed = 0; ///< Newest completed ticket; guarded by Mx.
  };
  std::shared_ptr<State> St = std::make_shared<State>();
};

/// Worker-thread FIFO stream. Enqueue never blocks (unbounded queue);
/// synchronize() blocks the caller until the queue drained and the
/// in-flight op finished.
class AsyncStream final : public Stream {
public:
  AsyncStream(AsyncHostRuntime &Parent, std::string Name);
  ~AsyncStream() override;

  const std::string &name() const override { return StreamName; }

  void upload(DeviceBuffer &Dst, const void *Src, size_t Bytes,
              size_t DstOffsetBytes = 0) override;
  void download(const DeviceBuffer &Src, void *Dst, size_t Bytes,
                size_t SrcOffsetBytes = 0) override;
  LaunchRecord launch(const LaunchConfig &Config,
                      std::function<void(KernelContext &)> Body) override;
  void hostTask(const std::string &Name, std::function<void()> Task) override;
  void record(Event &E) override;
  void wait(const Event &E) override;
  void synchronize() override;

private:
  void enqueue(std::function<void()> Op);
  void workerLoop();

  AsyncHostRuntime &Parent;
  std::string StreamName;

  std::mutex Mx;
  std::condition_variable HasWork; ///< Signals the worker.
  std::condition_variable Idle;    ///< Signals synchronize() callers.
  std::deque<std::function<void()>> Ops; ///< Guarded by Mx.
  bool Busy = false;     ///< An op is executing; guarded by Mx.
  bool ShuttingDown = false; ///< Guarded by Mx.
  std::thread Worker;
};

} // namespace psg

#endif // PSG_DEVICE_ASYNCHOSTRUNTIME_H
