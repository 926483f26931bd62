//===- tests/fabric_tcp_test.cpp - Real-socket fabric smoke test ----------===//
//
// Part of psg, under the BSD 3-Clause License.
//
// The TCP transport smoke test (ctest label: distributed): a coordinator
// and two worker threads speaking real length-prefixed frames over
// localhost sockets must reproduce the single-process sweep bit-exactly.
// Everything runs in one process — the label exists so environments
// without a network stack (or with sandboxed sockets) can exclude it:
//   ctest -LE distributed
//
//===----------------------------------------------------------------------===//

#include "core/BatchEngine.h"
#include "core/ParameterSpace.h"
#include "fabric/NodeCoordinator.h"
#include "fabric/NodeWorker.h"
#include "fabric/TcpFabric.h"
#include "fabric/WireFormat.h"
#include "rbm/CuratedModels.h"
#include "sim/Oracle.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

using namespace psg;

namespace {

std::vector<Parameterization> makeSweep(const ReactionNetwork &Net,
                                        size_t Points) {
  ParameterSpace Space(Net);
  ParameterAxis Axis;
  Axis.Name = "k0";
  Axis.Target = AxisTarget::RateConstant;
  Axis.Reactions = {0};
  Axis.Lo = 0.5;
  Axis.Hi = 3.0;
  Space.addAxis(Axis);
  std::vector<Parameterization> Params;
  for (const std::vector<double> &P : Space.gridSample({Points}))
    Params.push_back(Space.applyPoint(P));
  return Params;
}

ParameterizationSource sourceOver(const std::vector<Parameterization> &Params,
                                  size_t &Next) {
  return [&Params, &Next](size_t MaxCount,
                          std::vector<Parameterization> &Out) -> size_t {
    const size_t Count = std::min(MaxCount, Params.size() - Next);
    for (size_t I = 0; I < Count; ++I)
      Out.push_back(Params[Next + I]);
    Next += Count;
    return Count;
  };
}

class IndexedSink final : public OutcomeSink {
public:
  std::vector<SimulationOutcome> Outcomes;
  std::vector<unsigned> Deliveries;

  explicit IndexedSink(size_t Total) : Outcomes(Total), Deliveries(Total, 0) {}

  void consumeSubBatch(size_t FirstIndex,
                       std::vector<SimulationOutcome> &Batch) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    ASSERT_LE(FirstIndex + Batch.size(), Outcomes.size());
    for (size_t I = 0; I < Batch.size(); ++I) {
      Outcomes[FirstIndex + I] = std::move(Batch[I]);
      ++Deliveries[FirstIndex + I];
    }
  }

private:
  std::mutex Mutex;
};

} // namespace

TEST(FabricTcpTest, LocalhostSocketsReproduceSingleProcessRunBitExact) {
  const ReactionNetwork Net = makeBrusselatorNetwork();
  const size_t Points = 32;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Net, Points);

  EngineOptions Opts;
  Opts.SubBatchSize = Chunk;
  Opts.EndTime = 2.0;
  Opts.OutputSamples = 3;

  // Reference: plain single-process engine at the same chunk.
  std::vector<SimulationOutcome> Reference;
  {
    BatchEngine Engine(CostModel::paperSetup(), Opts);
    EngineReport R = Engine.runParameterizations(Net, Sweep);
    Reference = std::move(R.Outcomes);
    ASSERT_EQ(Reference.size(), Points);
  }

  // Distributed: coordinator + 2 TCP workers over 127.0.0.1. Port 0
  // lets the kernel pick, so parallel ctest runs never collide.
  auto ListenerOr = TcpListener::create(0);
  ASSERT_TRUE(ListenerOr.ok()) << ListenerOr.message();
  std::unique_ptr<TcpListener> Listener = std::move(*ListenerOr);
  const uint16_t Port = Listener->port();
  ASSERT_NE(Port, 0);

  std::vector<WorkerReport> Reports(2);
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < 2; ++W)
    Workers.emplace_back([&, W] {
      auto EndpointOr = connectTcpWorker("127.0.0.1", Port, 30.0);
      ASSERT_TRUE(EndpointOr.ok()) << EndpointOr.message();
      SchedOptions Local;
      Local.Devices = {"psg-engine"};
      Local.WorkersPerDevice = 1;
      NodeWorker Worker(CostModel::paperSetup(), **EndpointOr, Local,
                        /*HeartbeatIntervalSeconds=*/0.02);
      Reports[W] = Worker.serve(Net);
    });

  auto EndpointOr = Listener->acceptWorkers(2, 30.0);
  ASSERT_TRUE(EndpointOr.ok()) << EndpointOr.message();

  FabricOptions Fab;
  Fab.Endpoint = EndpointOr->get();
  Fab.Workers = {1, 2};
  Fab.HeartbeatIntervalSeconds = 0.02;

  IndexedSink Sink(Points);
  NodeCoordinator Coordinator(Opts, Fab);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  FabricScheduleReport Report =
      Coordinator.streamParameterizations(Net, Source, Sink);
  for (std::thread &T : Workers)
    T.join();

  EXPECT_EQ(Report.Stream.Simulations, Points);
  EXPECT_EQ(Report.LostSimulations, 0u);
  EXPECT_EQ(Report.NodeDeaths, 0u);
  EXPECT_EQ(Report.DuplicateBatches, 0u);
  uint64_t WorkerSims = 0;
  for (const WorkerReport &R : Reports) {
    EXPECT_EQ(R.ExitReason, "coordinator goodbye");
    WorkerSims += R.Simulations;
  }
  EXPECT_EQ(WorkerSims, Points);

  for (size_t I = 0; I < Points; ++I) {
    EXPECT_EQ(Sink.Deliveries[I], 1u) << "sim " << I;
    Status S = compareOutcomesBitExact(Sink.Outcomes[I], Reference[I]);
    EXPECT_TRUE(bool(S)) << "outcome " << I << ": " << S.message();
  }
}

TEST(FabricTcpTest, WorkerHeardOnlyAfterTheSweepIsToldGoodbye) {
  // Both workers connect, but one starts serving (and so says Hello)
  // only after the coordinator has finished the sweep on the other. It
  // must still be sent home rather than serve for as long as the
  // coordinator's endpoint stays open.
  const ReactionNetwork Net = makeBrusselatorNetwork();
  const size_t Points = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Net, Points);
  EngineOptions Opts;
  Opts.SubBatchSize = Points;
  Opts.EndTime = 2.0;
  Opts.OutputSamples = 3;

  auto ListenerOr = TcpListener::create(0);
  ASSERT_TRUE(ListenerOr.ok()) << ListenerOr.message();
  std::unique_ptr<TcpListener> Listener = std::move(*ListenerOr);
  const uint16_t Port = Listener->port();

  std::promise<void> SweepDone;
  std::shared_future<void> SweepDoneF = SweepDone.get_future().share();
  std::vector<std::promise<WorkerReport>> Reports(2);
  std::vector<std::future<WorkerReport>> ReportFs;
  for (std::promise<WorkerReport> &P : Reports)
    ReportFs.push_back(P.get_future());
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < 2; ++W)
    Workers.emplace_back([&, W] {
      auto EndpointOr = connectTcpWorker("127.0.0.1", Port, 30.0);
      if (!EndpointOr.ok()) {
        ADD_FAILURE() << EndpointOr.message();
        Reports[W].set_value(WorkerReport());
        return;
      }
      if (W == 1)
        SweepDoneF.wait();
      SchedOptions Local;
      Local.Devices = {"psg-engine"};
      NodeWorker Worker(CostModel::paperSetup(), **EndpointOr, Local, 0.02);
      Reports[W].set_value(Worker.serve(Net));
    });

  auto EndpointOr = Listener->acceptWorkers(2, 30.0);
  FabricScheduleReport Report;
  if (EndpointOr.ok()) {
    FabricOptions Fab;
    Fab.Endpoint = EndpointOr->get();
    Fab.Workers = {1, 2};
    Fab.HeartbeatIntervalSeconds = 0.02;
    IndexedSink Sink(Points);
    NodeCoordinator Coordinator(Opts, Fab);
    size_t Next = 0;
    ParameterizationSource Source = sourceOver(Sweep, Next);
    Report = Coordinator.streamParameterizations(Net, Source, Sink);
  } else {
    ADD_FAILURE() << EndpointOr.message();
  }
  SweepDone.set_value();

  // Bounded wait: a worker never told goodbye is released by closing
  // the coordinator's sockets, and fails below as "transport closed".
  const bool LateWorkerLeft =
      ReportFs[1].wait_for(std::chrono::seconds(30)) ==
      std::future_status::ready;
  if (EndpointOr.ok())
    EndpointOr->reset();
  for (std::thread &T : Workers)
    T.join();
  EXPECT_TRUE(LateWorkerLeft);

  EXPECT_EQ(Report.Stream.Simulations, Points);
  EXPECT_EQ(Report.LostSimulations, 0u);
  const WorkerReport Early = ReportFs[0].get(), Late = ReportFs[1].get();
  EXPECT_EQ(Early.ExitReason, "coordinator goodbye");
  EXPECT_EQ(Early.Simulations, Points);
  EXPECT_EQ(Late.ExitReason, "coordinator goodbye");
  EXPECT_EQ(Late.Grants, 0u);
}

TEST(FabricTcpTest, FrameReadWithTheHandshakeReplyIsDelivered) {
  // A worker descheduled between its Hello and reading the reply can
  // get the coordinator's next frame (the goodbye of a sweep that ended
  // meanwhile) in the same read as the reply. Nothing else may ever
  // arrive on that socket, so the endpoint must hand the frame out
  // without waiting for more bytes.
  int ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(ListenFd, 0);
  struct sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t Len = sizeof(Addr);
  ASSERT_EQ(::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), Len), 0);
  ASSERT_EQ(::listen(ListenFd, 1), 0);
  ASSERT_EQ(::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len),
            0);

  // A hand-rolled coordinator: read the worker's Hello, then write the
  // reply and a goodbye with one send(), and hold the socket open until
  // the worker closes it. Every wait is bounded.
  auto Readable = [](int Fd) {
    struct pollfd P = {Fd, POLLIN, 0};
    return ::poll(&P, 1, 30000) == 1;
  };
  std::thread Coordinator([&] {
    if (!Readable(ListenFd))
      return;
    const int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return;
    std::vector<uint8_t> In;
    uint8_t Chunk[256];
    while (framedSize(In.data(), In.size()) == 0 ||
           In.size() < framedSize(In.data(), In.size())) {
      const ssize_t N = Readable(Fd) ? ::recv(Fd, Chunk, sizeof(Chunk), 0) : 0;
      if (N <= 0)
        break;
      In.insert(In.end(), Chunk, Chunk + N);
    }
    HelloMsg Reply;
    Reply.Node = 1;
    std::vector<uint8_t> Out = encodeHello(Reply);
    NodeGoodbyeMsg Bye;
    Bye.Node = CoordinatorNode;
    Bye.Reason = "sweep complete";
    const std::vector<uint8_t> ByeFrame = encodeNodeGoodbye(Bye);
    Out.insert(Out.end(), ByeFrame.begin(), ByeFrame.end());
    ::send(Fd, Out.data(), Out.size(), MSG_NOSIGNAL);
    while (Readable(Fd) && ::recv(Fd, Chunk, sizeof(Chunk), 0) > 0) {
    }
    ::close(Fd);
  });

  auto EndpointOr = connectTcpWorker("127.0.0.1", ntohs(Addr.sin_port), 30.0);
  EXPECT_TRUE(EndpointOr.ok()) << EndpointOr.message();
  if (EndpointOr.ok()) {
    ReceivedFrame RF;
    EXPECT_EQ((*EndpointOr)->poll(RF, 5.0), PollStatus::Message);
    ErrorOr<FrameView> View = parseFrame(RF.Bytes);
    EXPECT_TRUE(View.ok() && View->Type == MessageType::NodeGoodbye);
    EndpointOr->reset();
  }
  Coordinator.join();
  ::close(ListenFd);
}

TEST(FabricTcpTest, WorkerSeesTransportCloseWhenCoordinatorDrops) {
  auto ListenerOr = TcpListener::create(0);
  ASSERT_TRUE(ListenerOr.ok()) << ListenerOr.message();
  std::unique_ptr<TcpListener> Listener = std::move(*ListenerOr);
  const uint16_t Port = Listener->port();

  const ReactionNetwork Net = makeBrusselatorNetwork();
  WorkerReport Report;
  std::thread Worker([&] {
    auto EndpointOr = connectTcpWorker("127.0.0.1", Port, 30.0);
    ASSERT_TRUE(EndpointOr.ok()) << EndpointOr.message();
    SchedOptions Local;
    Local.Devices = {"psg-engine"};
    NodeWorker W(CostModel::paperSetup(), **EndpointOr, Local, 0.02);
    Report = W.serve(Net);
  });

  auto EndpointOr = Listener->acceptWorkers(1, 30.0);
  ASSERT_TRUE(EndpointOr.ok()) << EndpointOr.message();
  // Drop the coordinator endpoint without a goodbye: the worker must
  // notice the closed transport and exit rather than spin on a dead
  // socket.
  EndpointOr->reset();
  Worker.join();
  EXPECT_EQ(Report.ExitReason, "transport closed");
  EXPECT_EQ(Report.Grants, 0u);
}
