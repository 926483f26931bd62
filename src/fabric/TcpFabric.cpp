//===- fabric/TcpFabric.cpp - TCP socket fabric ---------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "fabric/TcpFabric.h"

#include "fabric/WireFormat.h"
#include "support/StringUtils.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

namespace psg {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

void configureSocket(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

/// Writes the whole buffer or fails. MSG_NOSIGNAL: a dead peer yields
/// EPIPE instead of killing the process.
bool sendAll(int Fd, const uint8_t *Data, size_t Size) {
  size_t Off = 0;
  while (Off < Size) {
    ssize_t N = ::send(Fd, Data + Off, Size - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Blocks (bounded by \p Deadline on the shared clock) until one
/// complete frame has been read from \p Fd into \p Out, consuming
/// leftover bytes from/into \p Buf.
bool recvFrame(int Fd, std::vector<uint8_t> &Buf, std::vector<uint8_t> &Out,
               Clock::time_point Start, double Deadline) {
  for (;;) {
    size_t Need = framedSize(Buf.data(), Buf.size());
    if (Need != 0 && Buf.size() >= Need) {
      Out.assign(Buf.begin(), Buf.begin() + Need);
      Buf.erase(Buf.begin(), Buf.begin() + Need);
      return true;
    }
    if (Buf.size() >= FrameHeaderBytes && Need == 0)
      return false; // Bad magic or oversize length: the stream is garbage.
    const double Left = Deadline - secondsSince(Start);
    if (Left <= 0)
      return false;
    struct pollfd P = {Fd, POLLIN, 0};
    int Rc = ::poll(&P, 1, static_cast<int>(Left * 1000) + 1);
    if (Rc < 0 && errno != EINTR)
      return false;
    if (Rc <= 0)
      continue;
    uint8_t Chunk[4096];
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      return false;
    Buf.insert(Buf.end(), Chunk, Chunk + N);
  }
}

/// Shared endpoint over one or more connected sockets.
class TcpEndpoint final : public FabricEndpoint {
public:
  TcpEndpoint(NodeId Self) : Self(Self), Start(Clock::now()) {}

  ~TcpEndpoint() override {
    for (auto &Entry : Conns)
      if (Entry.second.Fd >= 0)
        ::close(Entry.second.Fd);
  }

  void addPeer(NodeId Peer, int Fd, std::vector<uint8_t> Leftover) {
    Connection C;
    C.Fd = Fd;
    C.RecvBuf = std::move(Leftover);
    // Frames that arrived with the handshake reply (a late worker can
    // find the coordinator's goodbye there) are ready now: poll() only
    // extracts after a recv, and nothing may follow them on the wire.
    extractFrames(Peer, Conns.emplace(Peer, std::move(C)).first->second);
  }

  NodeId id() const override { return Self; }

  bool send(NodeId To, std::vector<uint8_t> Frame) override {
    auto It = Conns.find(To);
    if (It == Conns.end() || It->second.Fd < 0)
      return false;
    if (!sendAll(It->second.Fd, Frame.data(), Frame.size())) {
      dropPeer(It->second);
      return false;
    }
    return true;
  }

  PollStatus poll(ReceivedFrame &Out, double TimeoutSeconds) override {
    const double Deadline = secondsSince(Start) + TimeoutSeconds;
    for (;;) {
      if (!Ready.empty()) {
        Out = std::move(Ready.front());
        Ready.pop_front();
        return PollStatus::Message;
      }
      std::vector<struct pollfd> Fds;
      std::vector<NodeId> Peers;
      for (auto &Entry : Conns)
        if (Entry.second.Fd >= 0) {
          Fds.push_back({Entry.second.Fd, POLLIN, 0});
          Peers.push_back(Entry.first);
        }
      if (Fds.empty())
        return PollStatus::Closed;
      const double Left = Deadline - secondsSince(Start);
      if (Left <= 0)
        return PollStatus::Timeout;
      int Rc = ::poll(Fds.data(), Fds.size(),
                      static_cast<int>(Left * 1000) + 1);
      if (Rc < 0 && errno != EINTR)
        return PollStatus::Closed;
      if (Rc <= 0)
        continue;
      for (size_t I = 0; I < Fds.size(); ++I) {
        if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        Connection &C = Conns[Peers[I]];
        uint8_t Chunk[65536];
        ssize_t N = ::recv(C.Fd, Chunk, sizeof(Chunk), 0);
        if (N <= 0) {
          if (N < 0 && (errno == EINTR || errno == EAGAIN))
            continue;
          dropPeer(C);
          continue;
        }
        C.RecvBuf.insert(C.RecvBuf.end(), Chunk, Chunk + N);
        extractFrames(Peers[I], C);
      }
    }
  }

  double now() const override { return secondsSince(Start); }

private:
  struct Connection {
    int Fd = -1;
    std::vector<uint8_t> RecvBuf;
  };

  void dropPeer(Connection &C) {
    if (C.Fd >= 0)
      ::close(C.Fd);
    C.Fd = -1;
    C.RecvBuf.clear();
  }

  void extractFrames(NodeId Peer, Connection &C) {
    for (;;) {
      size_t Need = framedSize(C.RecvBuf.data(), C.RecvBuf.size());
      if (Need == 0) {
        // Bad magic (or a payload length past the protocol cap) with a
        // full header present: the stream can never resynchronize, so
        // drop the peer before buffering anything it declared.
        if (C.RecvBuf.size() >= FrameHeaderBytes)
          dropPeer(C);
        return;
      }
      if (C.RecvBuf.size() < Need)
        return;
      ReceivedFrame R;
      R.From = Peer;
      R.Bytes.assign(C.RecvBuf.begin(), C.RecvBuf.begin() + Need);
      C.RecvBuf.erase(C.RecvBuf.begin(), C.RecvBuf.begin() + Need);
      Ready.push_back(std::move(R));
    }
  }

  NodeId Self;
  Clock::time_point Start;
  std::map<NodeId, Connection> Conns;
  std::deque<ReceivedFrame> Ready;
};

} // namespace

//===----------------------------------------------------------------------===//
// TcpListener
//===----------------------------------------------------------------------===//

ErrorOr<std::unique_ptr<TcpListener>> TcpListener::create(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Status::failure(
        formatString("fabric: socket() failed: %s", std::strerror(errno)));
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_ANY);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    ::close(Fd);
    return Status::failure(formatString("fabric: bind(%u) failed: %s",
                                        unsigned(Port), std::strerror(errno)));
  }
  if (::listen(Fd, 16) < 0) {
    ::close(Fd);
    return Status::failure(
        formatString("fabric: listen() failed: %s", std::strerror(errno)));
  }
  socklen_t Len = sizeof(Addr);
  ::getsockname(Fd, reinterpret_cast<struct sockaddr *>(&Addr), &Len);
  return std::unique_ptr<TcpListener>(
      new TcpListener(Fd, ntohs(Addr.sin_port)));
}

TcpListener::~TcpListener() {
  if (ListenFd >= 0)
    ::close(ListenFd);
}

ErrorOr<std::unique_ptr<FabricEndpoint>>
TcpListener::acceptWorkers(unsigned NumWorkers, double TimeoutSeconds) {
  auto Ep = std::make_unique<TcpEndpoint>(CoordinatorNode);
  const Clock::time_point Start = Clock::now();
  for (unsigned Admitted = 0; Admitted < NumWorkers;) {
    const double Left = TimeoutSeconds - secondsSince(Start);
    if (Left <= 0)
      return Status::failure(formatString(
          "fabric: only %u of %u workers connected within %.1fs", Admitted,
          NumWorkers, TimeoutSeconds));
    struct pollfd P = {ListenFd, POLLIN, 0};
    int Rc = ::poll(&P, 1, static_cast<int>(Left * 1000) + 1);
    if (Rc < 0 && errno != EINTR)
      return Status::failure(
          formatString("fabric: poll() failed: %s", std::strerror(errno)));
    if (Rc <= 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    configureSocket(Fd);
    // Handshake: the worker opens with Hello; we reply with its
    // assigned node id. Ids are 1..N in admission order.
    std::vector<uint8_t> Buf, Frame;
    if (!recvFrame(Fd, Buf, Frame, Start, TimeoutSeconds)) {
      ::close(Fd);
      continue;
    }
    ErrorOr<FrameView> View = parseFrame(Frame);
    if (!View.ok() || View->Type != MessageType::Hello) {
      ::close(Fd);
      continue;
    }
    const NodeId Assigned = Admitted + 1;
    HelloMsg Reply;
    Reply.Node = Assigned;
    std::vector<uint8_t> ReplyFrame = encodeHello(Reply);
    if (!sendAll(Fd, ReplyFrame.data(), ReplyFrame.size())) {
      ::close(Fd);
      continue;
    }
    Ep->addPeer(Assigned, Fd, std::move(Buf));
    ++Admitted;
  }
  return std::unique_ptr<FabricEndpoint>(std::move(Ep));
}

//===----------------------------------------------------------------------===//
// Worker connect
//===----------------------------------------------------------------------===//

ErrorOr<std::unique_ptr<FabricEndpoint>>
connectTcpWorker(const std::string &Host, uint16_t Port,
                 double TimeoutSeconds) {
  const Clock::time_point Start = Clock::now();
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1)
    return Status::failure(
        formatString("fabric: bad coordinator address '%s' (use an IPv4 "
                     "literal, e.g. 127.0.0.1)",
                     Host.c_str()));
  // Retry the connect until the deadline: workers are routinely started
  // before the coordinator is listening.
  int Fd = -1;
  for (;;) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return Status::failure(
          formatString("fabric: socket() failed: %s", std::strerror(errno)));
    if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                  sizeof(Addr)) == 0)
      break;
    ::close(Fd);
    Fd = -1;
    if (secondsSince(Start) >= TimeoutSeconds)
      return Status::failure(formatString(
          "fabric: could not reach coordinator %s:%u within %.1fs",
          Host.c_str(), unsigned(Port), TimeoutSeconds));
    struct timespec Nap = {0, 50 * 1000 * 1000}; // 50ms between attempts.
    ::nanosleep(&Nap, nullptr);
  }
  configureSocket(Fd);
  HelloMsg Hello; // Node = 0: "assign me an id".
  std::vector<uint8_t> HelloFrame = encodeHello(Hello);
  if (!sendAll(Fd, HelloFrame.data(), HelloFrame.size())) {
    ::close(Fd);
    return Status::failure("fabric: handshake send failed");
  }
  std::vector<uint8_t> Buf, Frame;
  if (!recvFrame(Fd, Buf, Frame, Start, TimeoutSeconds)) {
    ::close(Fd);
    return Status::failure("fabric: handshake reply never arrived");
  }
  ErrorOr<FrameView> View = parseFrame(Frame);
  if (!View.ok()) {
    ::close(Fd);
    return View.status();
  }
  ErrorOr<HelloMsg> Reply = decodeHello(View.value());
  if (!Reply.ok() || Reply->Node == CoordinatorNode) {
    ::close(Fd);
    return Status::failure("fabric: handshake reply malformed");
  }
  auto Ep = std::make_unique<TcpEndpoint>(Reply->Node);
  Ep->addPeer(CoordinatorNode, Fd, std::move(Buf));
  return std::unique_ptr<FabricEndpoint>(std::move(Ep));
}

} // namespace psg
