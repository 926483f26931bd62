//===- tests/device_runtime_test.cpp - Runtime conformance suite ----------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime-conformance suite: pins the DeviceRuntime semantics
/// contract (stream FIFO order, event record/wait, bit-exact buffer
/// round trips, launch and transfer accounting) that every backend must
/// satisfy. The suite is parameterized and runs identically against the
/// eager host runtime and the asynchronous one. Async-only behavior —
/// real cross-stream blocking, the seeded multi-stream stress test —
/// lives in its own suites below.
///
//===----------------------------------------------------------------------===//

#include "device/DeviceRuntime.h"
#include "device/HostRuntime.h"
#include "support/Metrics.h"
#include "vgpu/CostModel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <thread>
#include <vector>

using namespace psg;

namespace {

/// One conformance case: a runtime kind and the name() it must report.
/// ctest names each case by its raw bytes, Label's address included, so
/// resizing this struct, or adding, removing or resizing a string
/// literal in this file, renames the Runtimes/RuntimeConformance cases.
struct RuntimeCase {
  const char *Label;
  RuntimeKind Kind;
  const char *Name;
};

std::unique_ptr<DeviceRuntime> makeRuntime(const RuntimeCase &C,
                                           unsigned HostWorkers = 2) {
  auto RT = createDeviceRuntime(C.Kind, DeviceSpec::titanX(), HostWorkers);
  EXPECT_TRUE(RT.ok()) << RT.message();
  EXPECT_STREQ((*RT)->name(), C.Name);
  return std::move(*RT);
}

std::unique_ptr<DeviceRuntime> makeAsync(unsigned HostWorkers = 2) {
  return makeRuntime({"host_async", RuntimeKind::HostAsync, "host-async"},
                     HostWorkers);
}

/// Every runtime the conformance sections below must not distinguish.
/// A new label would rename its row's ctest cases, so the async row
/// keeps `host_async_nopool`.
const RuntimeCase ConformanceCases[] = {
    {"host", RuntimeKind::Host, "host"},
    {"host_async_nopool", RuntimeKind::HostAsync, "host-async"},
};

class RuntimeConformance : public ::testing::TestWithParam<RuntimeCase> {
protected:
  std::unique_ptr<DeviceRuntime> make(unsigned HostWorkers = 2) const {
    return makeRuntime(GetParam(), HostWorkers);
  }
};

INSTANTIATE_TEST_SUITE_P(Runtimes, RuntimeConformance,
                         ::testing::ValuesIn(ConformanceCases),
                         [](const ::testing::TestParamInfo<RuntimeCase> &I) {
                           return std::string(I.param.Label);
                         });

} // namespace

//===----------------------------------------------------------------------===//
// Factory and selection.
//===----------------------------------------------------------------------===//

TEST(RuntimeFactoryTest, ParsesKnownKinds) {
  auto Host = parseRuntimeKind("host");
  ASSERT_TRUE(Host.ok());
  EXPECT_EQ(*Host, RuntimeKind::Host);
  auto Async = parseRuntimeKind("host-async");
  ASSERT_TRUE(Async.ok());
  EXPECT_EQ(*Async, RuntimeKind::HostAsync);
  auto Cuda = parseRuntimeKind("cuda");
  ASSERT_TRUE(Cuda.ok());
  EXPECT_EQ(*Cuda, RuntimeKind::Cuda);
  EXPECT_STREQ(runtimeKindName(RuntimeKind::Host), "host");
  EXPECT_STREQ(runtimeKindName(RuntimeKind::HostAsync), "host-async");
  EXPECT_STREQ(runtimeKindName(RuntimeKind::Cuda), "cuda");
}

TEST(RuntimeFactoryTest, UnknownKindFailsWithKnownNames) {
  auto Bad = parseRuntimeKind("warp-drive");
  ASSERT_FALSE(Bad.ok());
  EXPECT_NE(Bad.message().find("warp-drive"), std::string::npos);
  EXPECT_NE(Bad.message().find("host"), std::string::npos);
  EXPECT_NE(Bad.message().find("host-async"), std::string::npos);
  EXPECT_NE(Bad.message().find("cuda"), std::string::npos);
}

TEST(RuntimeFactoryTest, HostRuntimesConstruct) {
  auto Host = makeRuntime({"host", RuntimeKind::Host, "host"});
  ASSERT_TRUE(Host);
  EXPECT_STREQ(Host->name(), "host");
  EXPECT_FALSE(Host->asynchronous());
  EXPECT_GE(Host->hostParallelism(), 1u);
  EXPECT_EQ(Host->spec().Name, DeviceSpec::titanX().Name);

  auto Async = makeAsync();
  ASSERT_TRUE(Async);
  EXPECT_STREQ(Async->name(), "host-async");
  EXPECT_TRUE(Async->asynchronous());
  EXPECT_GE(Async->hostParallelism(), 1u);
  EXPECT_EQ(Async->spec().Name, DeviceSpec::titanX().Name);
}

TEST(RuntimeFactoryTest, CudaUnavailableFailsCleanly) {
  auto RT = createDeviceRuntime(RuntimeKind::Cuda, DeviceSpec::titanX());
  ASSERT_FALSE(RT.ok())
      << "createDeviceRuntime(Cuda) must fail: psg has no CUDA backend";
  EXPECT_NE(RT.message().find("not available"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Buffers: allocation, round trips, accounting.
//===----------------------------------------------------------------------===//

TEST_P(RuntimeConformance, AllocateIsZeroFilled) {
  auto RT = make();
  auto Buf = RT->allocate(64);
  ASSERT_TRUE(Buf);
  EXPECT_EQ(Buf->sizeBytes(), 64u);
  EXPECT_EQ(Buf->sizeAs<double>(), 8u);
  std::vector<unsigned char> Host(64, 0xAB);
  auto S = RT->createStream("probe");
  S->download(*Buf, Host.data(), Host.size());
  S->synchronize();
  for (unsigned char B : Host)
    EXPECT_EQ(B, 0u);
}

TEST_P(RuntimeConformance, RoundTripIsBitExact) {
  auto RT = make();
  auto S = RT->createStream("xfer");
  // Payload chosen to catch any numeric (non-bytewise) copy path: a NaN
  // with a nonstandard payload, both zero signs, denormals, infinities.
  std::vector<double> Src = {0.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -1.0 / 3.0,
                             6.02214076e23};
  uint64_t PayloadNaN = 0x7ff8dec0dec0dec0ull;
  std::memcpy(&Src[2], &PayloadNaN, sizeof(double));

  auto Buf = RT->allocateArray<double>(Src.size());
  uploadArray(*S, *Buf, Src.data(), Src.size());
  std::vector<double> Dst(Src.size(), 12345.0);
  downloadArray(*S, *Buf, Dst.data(), Dst.size());
  S->synchronize();
  EXPECT_EQ(std::memcmp(Src.data(), Dst.data(), Src.size() * sizeof(double)),
            0);
  // The NaN payload specifically must survive untouched.
  uint64_t Back = 0;
  std::memcpy(&Back, &Dst[2], sizeof(double));
  EXPECT_EQ(Back, PayloadNaN);
  // And -0.0 must keep its sign bit.
  EXPECT_TRUE(std::signbit(Dst[1]));
  EXPECT_FALSE(std::signbit(Dst[0]));
}

TEST_P(RuntimeConformance, OffsetTransfersAddressTheRightBytes) {
  auto RT = make();
  auto S = RT->createStream("xfer");
  auto Buf = RT->allocateArray<double>(8);
  std::vector<double> Lo = {1, 2, 3, 4};
  std::vector<double> Hi = {5, 6, 7, 8};
  uploadArray(*S, *Buf, Hi.data(), Hi.size(), /*DstOffsetElems=*/4);
  uploadArray(*S, *Buf, Lo.data(), Lo.size(), /*DstOffsetElems=*/0);
  std::vector<double> Mid(4, 0);
  downloadArray(*S, *Buf, Mid.data(), Mid.size(), /*SrcOffsetElems=*/2);
  S->synchronize();
  EXPECT_EQ(Mid, (std::vector<double>{3, 4, 5, 6}));
}

TEST_P(RuntimeConformance, CountersTrackAllocationAndTransfers) {
  auto RT = make();
  {
    auto A = RT->allocate(128);
    auto B = RT->allocate(64);
    EXPECT_EQ(RT->counters().BuffersAllocated, 2u);
    EXPECT_EQ(RT->counters().BytesAllocated, 192u);
    EXPECT_EQ(RT->counters().BytesResident, 192u);
    EXPECT_EQ(RT->counters().PeakBytesResident, 192u);

    auto S = RT->createStream("xfer");
    std::vector<unsigned char> Host(64, 1);
    S->upload(*A, Host.data(), 64);
    S->upload(*A, Host.data(), 32, /*DstOffsetBytes=*/64);
    S->download(*B, Host.data(), 16);
    S->synchronize();
    EXPECT_EQ(RT->counters().Uploads, 2u);
    EXPECT_EQ(RT->counters().UploadBytes, 96u);
    EXPECT_EQ(RT->counters().Downloads, 1u);
    EXPECT_EQ(RT->counters().DownloadBytes, 16u);
  }
  // Freeing returns residency but not the cumulative totals or the peak.
  EXPECT_EQ(RT->counters().BytesResident, 0u);
  EXPECT_EQ(RT->counters().BytesAllocated, 192u);
  EXPECT_EQ(RT->counters().PeakBytesResident, 192u);
}

//===----------------------------------------------------------------------===//
// Streams: FIFO order, host tasks, synchronize.
//===----------------------------------------------------------------------===//

TEST_P(RuntimeConformance, OpsOnOneStreamRunInFifoOrder) {
  auto RT = make();
  auto S = RT->createStream("fifo");
  std::vector<int> Order;
  auto Buf = RT->allocateArray<int>(1);
  int One = 1;
  S->hostTask("first", [&] { Order.push_back(1); });
  uploadArray(*S, *Buf, &One, 1);
  S->hostTask("second", [&] { Order.push_back(2); });
  S->launch({"fifo-kernel", 1, 32},
            [&](KernelContext &) { Order.push_back(3); });
  S->hostTask("third", [&] { Order.push_back(4); });
  S->synchronize();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3, 4}));
}

TEST_P(RuntimeConformance, DownloadAfterUploadSeesTheUpload) {
  auto RT = make();
  auto S = RT->createStream("rw");
  auto Buf = RT->allocateArray<uint64_t>(256);
  std::vector<uint64_t> Src(256);
  for (size_t I = 0; I < Src.size(); ++I)
    Src[I] = I * I + 17;
  uploadArray(*S, *Buf, Src.data(), Src.size());
  std::vector<uint64_t> Dst(256, 0);
  downloadArray(*S, *Buf, Dst.data(), Dst.size());
  S->synchronize();
  EXPECT_EQ(Src, Dst);
}

TEST_P(RuntimeConformance, KernelSeesUploadedBytesAndDownloadSeesKernelWrites) {
  auto RT = make();
  auto S = RT->createStream("pipeline");
  const size_t N = 1024;
  auto Buf = RT->allocateArray<double>(N);
  std::vector<double> Src(N);
  for (size_t I = 0; I < N; ++I)
    Src[I] = 0.25 * static_cast<double>(I);
  uploadArray(*S, *Buf, Src.data(), N);
  auto *BufP = Buf.get();
  S->launch({"scale2", N, 32}, [BufP](KernelContext &Ctx) {
    double *Data = static_cast<double *>(BufP->deviceData());
    Data[Ctx.threadIndex()] *= 2.0;
  });
  std::vector<double> Dst(N, 0);
  downloadArray(*S, *Buf, Dst.data(), N);
  S->synchronize();
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Dst[I], 0.5 * static_cast<double>(I)) << I;
}

TEST_P(RuntimeConformance, StreamsAreNamedAndCounted) {
  auto RT = make();
  auto A = RT->createStream("dev0");
  auto B = RT->createStream("dev1");
  EXPECT_EQ(A->name(), "dev0");
  EXPECT_EQ(B->name(), "dev1");
  EXPECT_EQ(RT->counters().StreamsCreated, 2u);
  A->hostTask("noop", [] {});
  A->synchronize();
  EXPECT_EQ(RT->counters().HostTasks, 1u);
}

//===----------------------------------------------------------------------===//
// Events: record/wait semantics.
//===----------------------------------------------------------------------===//

TEST_P(RuntimeConformance, RecordMarksTheEvent) {
  auto RT = make();
  auto S = RT->createStream("ev");
  auto E = RT->createEvent();
  EXPECT_FALSE(E->recorded());
  S->record(*E);
  EXPECT_TRUE(E->recorded());
  S->synchronize();
  EXPECT_EQ(RT->counters().EventsRecorded, 1u);
}

TEST_P(RuntimeConformance, WaitBeforeRecordIsANoOp) {
  // CUDA semantics: waiting on an event that was never recorded does not
  // block; later work on the waiting stream proceeds.
  auto RT = make();
  auto S = RT->createStream("ev");
  auto E = RT->createEvent();
  S->wait(*E);
  std::atomic<bool> Ran{false};
  S->hostTask("after-wait", [&] { Ran = true; });
  S->synchronize();
  EXPECT_TRUE(Ran.load());
  EXPECT_FALSE(E->recorded());
  EXPECT_EQ(RT->counters().EventWaits, 1u);
}

TEST_P(RuntimeConformance, CrossStreamWaitOrdersAfterRecordedPoint) {
  auto RT = make();
  auto Producer = RT->createStream("producer");
  auto Consumer = RT->createStream("consumer");
  auto Ready = RT->createEvent();
  auto Buf = RT->allocateArray<int>(1);
  int FortyTwo = 42;
  uploadArray(*Producer, *Buf, &FortyTwo, 1);
  Producer->record(*Ready);
  Consumer->wait(*Ready);
  int Seen = 0;
  downloadArray(*Consumer, *Buf, &Seen, 1);
  Consumer->synchronize();
  EXPECT_EQ(Seen, 42);
}

TEST_P(RuntimeConformance, UploadComputeDownloadDataflowAcrossThreeStreams) {
  // The executor's double-buffer shape: h2d stream uploads, compute
  // stream transforms after the Uploaded event, d2h stream downloads
  // after the Computed event. Every runtime must produce the same bytes.
  auto RT = make();
  auto H2d = RT->createStream("h2d");
  auto Compute = RT->createStream("compute");
  auto D2h = RT->createStream("d2h");
  auto Uploaded = RT->createEvent();
  auto Computed = RT->createEvent();

  const size_t N = 256;
  auto Buf = RT->allocateArray<double>(N);
  std::vector<double> Src(N);
  for (size_t I = 0; I < N; ++I)
    Src[I] = static_cast<double>(I) - 128.0;

  uploadArray(*H2d, *Buf, Src.data(), N);
  H2d->record(*Uploaded);

  Compute->wait(*Uploaded);
  auto *BufP = Buf.get();
  Compute->launch({"negate", N, 32}, [BufP](KernelContext &Ctx) {
    double *Data = static_cast<double *>(BufP->deviceData());
    Data[Ctx.threadIndex()] = -Data[Ctx.threadIndex()];
  });
  Compute->record(*Computed);

  D2h->wait(*Computed);
  std::vector<double> Dst(N, 0);
  downloadArray(*D2h, *Buf, Dst.data(), N);
  D2h->synchronize();
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Dst[I], -(static_cast<double>(I) - 128.0)) << I;
}

//===----------------------------------------------------------------------===//
// Kernel launch: VirtualDevice-equivalent context semantics.
//===----------------------------------------------------------------------===//

TEST_P(RuntimeConformance, LaunchRecordMatchesGeometry) {
  auto RT = make();
  LaunchRecord R = RT->launchKernel({"geometry", 100, 32},
                                    [](KernelContext &) {});
  EXPECT_EQ(R.KernelName, "geometry");
  EXPECT_EQ(R.LogicalThreads, 100u);
  EXPECT_EQ(R.Blocks, 4u); // ceil(100 / 32)
  EXPECT_EQ(RT->counters().KernelLaunches, 1u);
  EXPECT_EQ(RT->deviceCounters().KernelLaunches, 1u);
  EXPECT_EQ(RT->deviceCounters().LogicalThreadsRun, 100u);
}

TEST_P(RuntimeConformance, EveryLogicalThreadRunsOnce) {
  auto RT = make();
  const uint64_t N = 777;
  std::vector<std::atomic<int>> Hits(N);
  RT->launchKernel({"coverage", N, 32}, [&](KernelContext &Ctx) {
    ++Hits[Ctx.threadIndex()];
    EXPECT_LT(Ctx.workerIndex(), RT->hostParallelism());
    EXPECT_EQ(Ctx.gridSize(), N);
  });
  for (uint64_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << I;
}

TEST_P(RuntimeConformance, ChildGridsFeedDeviceCounters) {
  auto RT = make();
  const uint64_t Parents = 8;
  std::atomic<uint64_t> ChildThreads{0};
  LaunchRecord R =
      RT->launchKernel({"parent", Parents, 32}, [&](KernelContext &Ctx) {
        ChildThreads += Ctx.launchChildGrid(
            3, [&](uint64_t) { /* child work */ });
      });
  EXPECT_EQ(R.ChildGrids, Parents);
  EXPECT_EQ(ChildThreads.load(), Parents * 3);
  EXPECT_EQ(RT->deviceCounters().ChildGridLaunches, Parents);
}

TEST_P(RuntimeConformance, StreamLaunchAndDefaultLaunchShareAccounting) {
  auto RT = make();
  auto S = RT->createStream("launches");
  RT->launchKernel({"a", 10, 32}, [](KernelContext &) {});
  S->launch({"b", 20, 32}, [](KernelContext &) {});
  S->synchronize();
  EXPECT_EQ(RT->counters().KernelLaunches, 2u);
  EXPECT_EQ(RT->deviceCounters().KernelLaunches, 2u);
  EXPECT_EQ(RT->deviceCounters().LogicalThreadsRun, 30u);
}

//===----------------------------------------------------------------------===//
// Bit-exactness across runtime handles: the same kernel body over the
// same inputs yields identical bytes regardless of which runtime
// instance (or worker count) executes it.
//===----------------------------------------------------------------------===//

TEST_P(RuntimeConformance, ResultsIndependentOfWorkerCount) {
  const size_t N = 512;
  std::vector<double> Input(N);
  for (size_t I = 0; I < N; ++I)
    Input[I] = std::sin(static_cast<double>(I) * 0.01) + 1e-3;

  auto RunWith = [&](unsigned Workers) {
    auto RT = make(Workers);
    auto S = RT->createStream("bench");
    auto Buf = RT->allocateArray<double>(N);
    uploadArray(*S, *Buf, Input.data(), N);
    auto *BufP = Buf.get();
    S->launch({"stiff-ish", N, 32}, [BufP](KernelContext &Ctx) {
      double *Data = static_cast<double *>(BufP->deviceData());
      double X = Data[Ctx.threadIndex()];
      for (int Step = 0; Step < 50; ++Step)
        X = X + 0.01 * (1.0 - X * X); // logistic-style update
      Data[Ctx.threadIndex()] = X;
    });
    std::vector<double> Out(N);
    downloadArray(*S, *Buf, Out.data(), N);
    S->synchronize();
    return Out;
  };

  std::vector<double> One = RunWith(1);
  std::vector<double> Four = RunWith(4);
  EXPECT_EQ(std::memcmp(One.data(), Four.data(), N * sizeof(double)), 0);
}

//===----------------------------------------------------------------------===//
// Async-only semantics: enqueue really is asynchronous, and a wait on a
// recorded-but-unfinished event really blocks the waiting stream.
//===----------------------------------------------------------------------===//

TEST(AsyncRuntimeTest, CrossStreamWaitReallyBlocksUntilRecordCompletes) {
  auto RT = makeAsync();
  auto Producer = RT->createStream("producer");
  auto Consumer = RT->createStream("consumer");
  auto Ready = RT->createEvent();

  std::atomic<bool> Go{false};
  std::atomic<int> Value{0};
  std::atomic<int> Seen{-1};
  // The producer parks until the main thread releases it — valid only
  // because enqueue returns before the op runs on this runtime.
  Producer->hostTask("slow-produce", [&] {
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
    Value.store(42, std::memory_order_release);
  });
  Producer->record(*Ready);
  Consumer->wait(*Ready);
  Consumer->hostTask("consume",
                     [&] { Seen = Value.load(std::memory_order_acquire); });

  // recorded() flips at enqueue (cudaEventRecord semantics), but the
  // consumer must still be parked behind the wait.
  EXPECT_TRUE(Ready->recorded());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(Seen.load(), -1)
      << "consumer ran past a wait on an unfinished event";

  Go.store(true, std::memory_order_release);
  RT->synchronize();
  EXPECT_EQ(Seen.load(), 42);
}

TEST(AsyncRuntimeTest, EnqueueReturnsBeforeOpsExecute) {
  auto RT = makeAsync();
  auto S = RT->createStream("lagging");
  std::atomic<bool> Go{false};
  std::atomic<int> Ran{0};
  S->hostTask("gate", [&] {
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  for (int I = 0; I < 8; ++I)
    S->hostTask("follow", [&] { ++Ran; });
  // All nine enqueues returned while the first op is still parked.
  EXPECT_EQ(Ran.load(), 0);
  Go.store(true, std::memory_order_release);
  S->synchronize();
  EXPECT_EQ(Ran.load(), 8);
}

TEST(AsyncRuntimeTest, RuntimeSynchronizeDrainsAllStreams) {
  auto RT = makeAsync();
  auto A = RT->createStream("a");
  auto B = RT->createStream("b");
  std::atomic<int> Done{0};
  for (int I = 0; I < 16; ++I) {
    A->hostTask("a-op", [&] { ++Done; });
    B->hostTask("b-op", [&] { ++Done; });
  }
  RT->synchronize();
  EXPECT_EQ(Done.load(), 32);
}

//===----------------------------------------------------------------------===//
// Seeded multi-stream stress: concurrent shards hammer streams, events,
// allocation, and the counters from many host threads at once. Run under
// the TSan CI leg, this is the race detector for the async machinery.
//===----------------------------------------------------------------------===//

TEST(AsyncRuntimeStressTest, ConcurrentShardsStayCoherent) {
  auto RT = makeAsync(/*HostWorkers=*/2);
  constexpr unsigned Shards = 6;
  constexpr unsigned Iterations = 25;
  std::atomic<uint64_t> Mismatches{0};

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Shards; ++T) {
    Threads.emplace_back([&, T] {
      std::mt19937 Rng(1234 + T); // Deterministic per-shard schedule.
      std::uniform_int_distribution<size_t> Size(1, 2048);
      auto Up = RT->createStream("up" + std::to_string(T));
      auto Down = RT->createStream("down" + std::to_string(T));
      for (unsigned I = 0; I < Iterations; ++I) {
        const size_t N = Size(Rng);
        auto Buf = RT->allocate(N);
        auto Ready = RT->createEvent();
        std::vector<unsigned char> Src(N);
        for (size_t J = 0; J < N; ++J)
          Src[J] = static_cast<unsigned char>(Rng() & 0xFF);
        std::vector<unsigned char> Dst(N, 0);
        Up->upload(*Buf, Src.data(), N);
        Up->record(*Ready);
        Down->wait(*Ready);
        Down->download(*Buf, Dst.data(), N);
        Down->synchronize();
        if (std::memcmp(Src.data(), Dst.data(), N) != 0)
          ++Mismatches;
        // Buffer and event die here — allocator churn under
        // concurrency is the point.
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);

  RuntimeCounters C = RT->counters();
  EXPECT_EQ(C.BuffersAllocated, uint64_t(Shards) * Iterations);
  EXPECT_EQ(C.BytesResident, 0u);
  EXPECT_EQ(C.Uploads, uint64_t(Shards) * Iterations);
  EXPECT_EQ(C.Downloads, uint64_t(Shards) * Iterations);
  EXPECT_EQ(C.UploadBytes, C.DownloadBytes);
  EXPECT_EQ(C.EventsRecorded, uint64_t(Shards) * Iterations);
  EXPECT_EQ(C.EventWaits, uint64_t(Shards) * Iterations);
}
