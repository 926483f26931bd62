//===- device/DeviceRuntime.h - Device execution runtime --------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The device-runtime abstraction every execution backend implements:
/// streams (ordered asynchronous work queues), device buffers (typed
/// allocate/upload/download with byte accounting), events (record/wait
/// for cross-stream dependencies) and kernel launch through an execution
/// configuration record — the CUDA vocabulary (stream / cudaMalloc /
/// cudaMemcpyAsync / event / <<<grid, block>>>) expressed backend-
/// neutrally.
///
/// The layer sits off the execution path: simulators, BatchEngine,
/// ShardedExecutor and NodeWorker launch straight on
/// vgpu::VirtualDevice, and nothing outside the device-runtime tests
/// constructs a runtime. ROADMAP.md schedules its removal.
///
/// Two implementations exist:
///
///  * HostRuntime (device/HostRuntime.h): the modeled device. Kernels
///    really run on the host thread pool through vgpu::VirtualDevice,
///    "device memory" is host memory, and every operation feeds the same
///    launch/cost accounting as before — results are bit-exact with the
///    pre-runtime code. Streams complete eagerly at enqueue.
///  * AsyncHostRuntime (device/AsyncHostRuntime.h): the same modeled
///    device behind truly asynchronous streams — each stream is a
///    worker-thread-backed FIFO queue and events are epoch-tagged
///    condition waits.
///
/// There is no CUDA backend: RuntimeKind::Cuda parses, but creating it
/// fails.
///
/// Semantics contract (pinned by the runtime-conformance suite in
/// tests/device_runtime_test.cpp, parameterized over eager and async
/// runtimes; any future backend must pass it):
///
///  * Operations enqueued on one stream execute in FIFO order.
///  * Stream::synchronize returns only after every enqueued op finished.
///  * Event::record marks the point a stream has reached; a wait on a
///    recorded event orders the waiting stream after that point. Waiting
///    on a never-recorded event completes immediately (CUDA semantics).
///  * upload/download move exact bytes: a download after an upload of
///    the same range returns a bit-identical image (including NaN
///    payloads and -0.0). On an asynchronous runtime the host memory an
///    upload reads (or a download writes) must stay valid and untouched
///    until the op is known complete (stream/event/runtime synchronize)
///    — exactly cudaMemcpyAsync's rule.
///  * Kernel launches through a runtime observe the same KernelContext
///    semantics as vgpu::VirtualDevice::launchKernel (thread/block
///    indices, worker indices, child-grid accounting).
///
/// Streams of an asynchronous runtime run ops on their own worker
/// threads, so runtime counters are accumulated atomically and
/// allocate/free is thread-safe; counters() returns a coherent
/// snapshot. Creating/destroying streams and events remains the
/// responsibility of one owner per runtime.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_DEVICE_DEVICERUNTIME_H
#define PSG_DEVICE_DEVICERUNTIME_H

#include "support/Error.h"
#include "support/FunctionRef.h"
#include "vgpu/DeviceSpec.h"
#include "vgpu/VirtualDevice.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace psg {

/// The execution configuration of one kernel launch — the runtime-
/// neutral mirror of CUDA's <<<grid, block, sharedMem, stream>>> plus
/// the kernel identity used for accounting and tracing.
struct LaunchConfig {
  std::string KernelName;
  uint64_t GridThreads = 0;  ///< Logical threads across the whole grid.
  unsigned BlockDim = 32;    ///< Threads per block.
  size_t SharedMemBytes = 0; ///< Modeled dynamic shared memory per block.
};

/// A typed device allocation. sizeBytes() is exact; deviceData() is the
/// address kernels dereference — host memory for the host runtime, a
/// device pointer (which host code must not touch) for a real backend.
class DeviceBuffer {
public:
  virtual ~DeviceBuffer();
  virtual size_t sizeBytes() const = 0;
  virtual void *deviceData() = 0;
  const void *deviceData() const {
    return const_cast<DeviceBuffer *>(this)->deviceData();
  }

  /// Elements of \p T the buffer holds (rounding down).
  template <typename T> size_t sizeAs() const { return sizeBytes() / sizeof(T); }
};

/// A cross-stream ordering point (cudaEvent_t).
class Event {
public:
  virtual ~Event();
  /// True once some stream recorded this event.
  virtual bool recorded() const = 0;
};

/// An ordered asynchronous work queue (cudaStream_t). Ops may complete
/// eagerly (the host runtime) or truly asynchronously (a real backend);
/// either way FIFO order within the stream and the synchronize/event
/// contracts hold.
class Stream {
public:
  virtual ~Stream();

  virtual const std::string &name() const = 0;

  /// Copies \p Bytes from host \p Src into \p Dst at \p DstOffsetBytes
  /// (H2D, cudaMemcpyAsync). The range must lie inside the buffer.
  virtual void upload(DeviceBuffer &Dst, const void *Src, size_t Bytes,
                      size_t DstOffsetBytes = 0) = 0;

  /// Copies \p Bytes from \p Src at \p SrcOffsetBytes to host \p Dst
  /// (D2H). Completion is only guaranteed after synchronize().
  virtual void download(const DeviceBuffer &Src, void *Dst, size_t Bytes,
                        size_t SrcOffsetBytes = 0) = 0;

  /// Launches a kernel in stream order. Body must be thread-safe across
  /// logical threads and is owned by the stream until it ran (async
  /// streams execute it later on their worker). The returned record is
  /// the real one on an eager stream; an asynchronous stream returns the
  /// geometry predicted from \p Config (child-grid counts land in the
  /// device counters once the grid retires).
  virtual LaunchRecord launch(const LaunchConfig &Config,
                              std::function<void(KernelContext &)> Body) = 0;

  /// Enqueues a host-side stage in stream order (cudaLaunchHostFunc):
  /// the glue the sharded executor uses for work that is host code today
  /// but sits between device transfers. The stream owns \p Task until it
  /// ran.
  virtual void hostTask(const std::string &Name,
                        std::function<void()> Task) = 0;

  /// Records \p E at the stream's current position.
  virtual void record(Event &E) = 0;

  /// Orders subsequent work on this stream after \p E's recorded
  /// position. Waiting on a never-recorded event is a no-op.
  virtual void wait(const Event &E) = 0;

  /// Blocks the host until every enqueued operation completed.
  virtual void synchronize() = 0;
};

/// Cumulative transfer/allocation accounting of one runtime. Mirrors
/// vgpu::DeviceCounters for the memory system; exported by the host
/// runtimes as `psg.device.*` metrics. A plain-field snapshot — live
/// accumulation happens in AtomicRuntimeCounters because stream workers
/// update concurrently.
struct RuntimeCounters {
  uint64_t BuffersAllocated = 0;
  uint64_t BytesAllocated = 0;     ///< Cumulative allocation volume.
  uint64_t BytesResident = 0;      ///< Currently allocated bytes.
  uint64_t PeakBytesResident = 0;  ///< High-water mark of BytesResident.
  uint64_t Uploads = 0;
  uint64_t UploadBytes = 0;
  uint64_t Downloads = 0;
  uint64_t DownloadBytes = 0;
  uint64_t StreamsCreated = 0;
  uint64_t EventsRecorded = 0;
  uint64_t EventWaits = 0;
  uint64_t HostTasks = 0;
  uint64_t KernelLaunches = 0; ///< Through streams and the default path.
};

/// Thread-safe accumulator behind RuntimeCounters. Every runtime owns
/// one and snapshots it in counters(); stream worker threads update it
/// concurrently with the owner, so each field is a relaxed atomic and
/// the residency high-water mark is maintained with a CAS loop (the
/// read-modify-write would otherwise race).
struct AtomicRuntimeCounters {
  std::atomic<uint64_t> BuffersAllocated{0};
  std::atomic<uint64_t> BytesAllocated{0};
  std::atomic<uint64_t> BytesResident{0};
  std::atomic<uint64_t> PeakBytesResident{0};
  std::atomic<uint64_t> Uploads{0};
  std::atomic<uint64_t> UploadBytes{0};
  std::atomic<uint64_t> Downloads{0};
  std::atomic<uint64_t> DownloadBytes{0};
  std::atomic<uint64_t> StreamsCreated{0};
  std::atomic<uint64_t> EventsRecorded{0};
  std::atomic<uint64_t> EventWaits{0};
  std::atomic<uint64_t> HostTasks{0};
  std::atomic<uint64_t> KernelLaunches{0};

  /// Accounts one allocation of \p Bytes and advances the resident
  /// high-water mark.
  void recordAllocation(uint64_t Bytes) {
    BuffersAllocated.fetch_add(1, std::memory_order_relaxed);
    BytesAllocated.fetch_add(Bytes, std::memory_order_relaxed);
    uint64_t Now = BytesResident.fetch_add(Bytes, std::memory_order_relaxed) +
                   Bytes;
    uint64_t Peak = PeakBytesResident.load(std::memory_order_relaxed);
    while (Now > Peak && !PeakBytesResident.compare_exchange_weak(
                             Peak, Now, std::memory_order_relaxed))
      ;
  }

  /// Accounts one free of \p Bytes.
  void recordFree(uint64_t Bytes) {
    BytesResident.fetch_sub(Bytes, std::memory_order_relaxed);
  }

  RuntimeCounters snapshot() const {
    RuntimeCounters C;
    C.BuffersAllocated = BuffersAllocated.load(std::memory_order_relaxed);
    C.BytesAllocated = BytesAllocated.load(std::memory_order_relaxed);
    C.BytesResident = BytesResident.load(std::memory_order_relaxed);
    C.PeakBytesResident = PeakBytesResident.load(std::memory_order_relaxed);
    C.Uploads = Uploads.load(std::memory_order_relaxed);
    C.UploadBytes = UploadBytes.load(std::memory_order_relaxed);
    C.Downloads = Downloads.load(std::memory_order_relaxed);
    C.DownloadBytes = DownloadBytes.load(std::memory_order_relaxed);
    C.StreamsCreated = StreamsCreated.load(std::memory_order_relaxed);
    C.EventsRecorded = EventsRecorded.load(std::memory_order_relaxed);
    C.EventWaits = EventWaits.load(std::memory_order_relaxed);
    C.HostTasks = HostTasks.load(std::memory_order_relaxed);
    C.KernelLaunches = KernelLaunches.load(std::memory_order_relaxed);
    return C;
  }
};

/// One execution backend: a device spec, streams, buffers, events, and
/// kernel launch over one owned device.
class DeviceRuntime {
public:
  virtual ~DeviceRuntime();

  /// Stable backend identifier ("host", "host-async", "cuda").
  virtual const char *name() const = 0;

  /// True when stream operations really overlap with the enqueueing
  /// thread (worker-backed streams, real device queues). Eager runtimes
  /// return false; callers use this to pick measured vs modeled overlap
  /// reporting.
  virtual bool asynchronous() const { return false; }

  virtual const DeviceSpec &spec() const = 0;

  /// Distinct host worker indices kernel bodies may observe (see
  /// ThreadPool::parallelism); simulators size per-worker scratch to it.
  virtual unsigned hostParallelism() const = 0;

  virtual std::unique_ptr<Stream> createStream(std::string Name) = 0;
  virtual std::unique_ptr<Event> createEvent() = 0;

  /// Allocates \p Bytes of device memory (cudaMalloc). Zero-filled, so
  /// a download before any upload reads defined bytes.
  virtual std::unique_ptr<DeviceBuffer> allocate(size_t Bytes) = 0;

  /// Launches on the default stream (the CUDA null stream), blocking
  /// until the grid completed. Not ordered against explicit streams;
  /// callers that need ordering enqueue through Stream::launch.
  virtual LaunchRecord launchKernel(const LaunchConfig &Config,
                                    FunctionRef<void(KernelContext &)> Body) = 0;

  /// Blocks until every stream of this runtime drained
  /// (cudaDeviceSynchronize).
  virtual void synchronize() = 0;

  /// Kernel-side accounting (launches, logical threads, child grids).
  virtual const DeviceCounters &deviceCounters() const = 0;

  /// Memory/stream-side accounting: a coherent snapshot of the atomic
  /// accumulators (safe to call while stream workers run).
  virtual RuntimeCounters counters() const = 0;

  /// Typed allocation helper: \p Count elements of \p T.
  template <typename T> std::unique_ptr<DeviceBuffer> allocateArray(size_t Count) {
    return allocate(Count * sizeof(T));
  }
};

/// Typed transfer helpers over the byte interface.
template <typename T>
void uploadArray(Stream &S, DeviceBuffer &Dst, const T *Src, size_t Count,
                 size_t DstOffsetElems = 0) {
  S.upload(Dst, Src, Count * sizeof(T), DstOffsetElems * sizeof(T));
}
template <typename T>
void downloadArray(Stream &S, const DeviceBuffer &Src, T *Dst, size_t Count,
                   size_t SrcOffsetElems = 0) {
  S.download(Src, Dst, Count * sizeof(T), SrcOffsetElems * sizeof(T));
}

/// The runtime names. Host and HostAsync are always available; Cuda has
/// no backend, so createDeviceRuntime fails for it.
enum class RuntimeKind { Host, HostAsync, Cuda };

/// Stable display name ("host", "host-async", "cuda").
const char *runtimeKindName(RuntimeKind Kind);

/// Parses a runtime name; fails with the known-name list on anything
/// else.
ErrorOr<RuntimeKind> parseRuntimeKind(const std::string &Name);

/// Creates a runtime of \p Kind over \p Spec. \p HostWorkers caps the
/// host pool backing the host runtimes (0 = hardware concurrency).
/// Fails for RuntimeKind::Cuda, which has no backend.
ErrorOr<std::unique_ptr<DeviceRuntime>>
createDeviceRuntime(RuntimeKind Kind, DeviceSpec Spec,
                    unsigned HostWorkers = 0);

} // namespace psg

#endif // PSG_DEVICE_DEVICERUNTIME_H
