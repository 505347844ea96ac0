#include "src/core/distributed.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/net/epoll_transport.h"
#include "src/net/socket_util.h"

namespace midway {
namespace {

// Bootstrap hello: little-endian u16 rank, u16 peer listen port.
bool SendHello(int fd, NodeId rank, uint16_t port) {
  uint8_t buf[4] = {static_cast<uint8_t>(rank & 0xFF), static_cast<uint8_t>(rank >> 8),
                    static_cast<uint8_t>(port & 0xFF), static_cast<uint8_t>(port >> 8)};
  return net::WriteExact(fd, buf, sizeof(buf));
}

bool RecvHello(int fd, NodeId* rank, uint16_t* port) {
  uint8_t buf[4];
  if (!net::ReadExact(fd, buf, sizeof(buf))) return false;
  *rank = static_cast<NodeId>(buf[0] | (buf[1] << 8));
  *port = static_cast<uint16_t>(buf[2] | (buf[3] << 8));
  return true;
}

// Accepts one connection on `listener`, reads its hello and files the fd under the
// sender's rank, which must lie in [lo, fds->size()) and not be connected yet. Returns the
// port the hello announced.
uint16_t AcceptPeer(int listener, NodeId lo, std::vector<int>* fds, NodeId* rank) {
  int fd = ::accept(listener, nullptr, nullptr);
  MIDWAY_CHECK_GE(fd, 0) << " accept(): " << std::strerror(errno);
  net::TuneSocket(fd);
  uint16_t port = 0;
  MIDWAY_CHECK(RecvHello(fd, rank, &port)) << " bootstrap hello failed";
  MIDWAY_CHECK_GE(*rank, lo);
  MIDWAY_CHECK_LT(*rank, fds->size());
  MIDWAY_CHECK_EQ((*fds)[*rank], -1) << " duplicate rank " << *rank;
  (*fds)[*rank] = fd;
  return port;
}

int ConnectPeer(const std::string& host, uint16_t port) {
  int fd = net::ConnectWithRetry(host, port);
  net::TuneSocket(fd);
  return fd;
}

// Forms this rank's links of the full TCP mesh and returns one connected, non-blocking fd
// per remote rank (fds[rank] stays -1). Rank 0 is the coordinator: every other rank opens
// its own ephemeral peer listener, connects to the coordinator and sends {rank, peer_port};
// the coordinator gathers all hellos and broadcasts the port table (u16 LE per rank). Each
// worker then connects to every lower-numbered worker (hello {rank, 0}) and accepts from
// every higher-numbered one. The coordinator connections double as the rank-0 links.
std::vector<int> ConnectMesh(const DistributedOptions& opts) {
  const NodeId n = opts.num_procs;
  const NodeId self = opts.rank;
  std::vector<int> fds(n, -1);
  std::vector<uint8_t> table(static_cast<size_t>(n) * 2, 0);
  if (self == 0) {
    int listener = opts.adopted_listener_fd;
    if (listener < 0) {
      MIDWAY_CHECK_GT(opts.coordinator_port, 0)
          << " rank 0 needs a coordinator port or an adopted listener";
      uint16_t port = opts.coordinator_port;
      listener = net::Listen(opts.host, &port);
    }
    for (NodeId k = 1; k < n; ++k) {
      NodeId rank = 0;
      const uint16_t port = AcceptPeer(listener, 1, &fds, &rank);
      table[rank * 2] = static_cast<uint8_t>(port & 0xFF);
      table[rank * 2 + 1] = static_cast<uint8_t>(port >> 8);
    }
    ::close(listener);
    for (NodeId r = 1; r < n; ++r) {
      MIDWAY_CHECK(net::WriteExact(fds[r], table.data(), table.size()))
          << " table broadcast to rank " << r << " failed";
    }
  } else {
    MIDWAY_CHECK_GT(opts.coordinator_port, 0) << " workers need the coordinator port";
    uint16_t my_port = 0;
    int peer_listener = net::Listen(opts.host, &my_port);
    fds[0] = ConnectPeer(opts.host, opts.coordinator_port);
    MIDWAY_CHECK(SendHello(fds[0], self, my_port));
    MIDWAY_CHECK(net::ReadExact(fds[0], table.data(), table.size()))
        << " bootstrap table read failed";
    // Lower-numbered workers are already listening: the coordinator sends the table only
    // once everyone has registered.
    for (NodeId j = 1; j < self; ++j) {
      const auto port = static_cast<uint16_t>(table[j * 2] | (table[j * 2 + 1] << 8));
      fds[j] = ConnectPeer(opts.host, port);
      MIDWAY_CHECK(SendHello(fds[j], self, 0));
    }
    for (NodeId k = self + 1; k < n; ++k) {
      NodeId rank = 0;
      AcceptPeer(peer_listener, static_cast<NodeId>(self + 1), &fds, &rank);
    }
    ::close(peer_listener);
  }
  for (int fd : fds) {
    if (fd >= 0) net::SetNonblocking(fd);
  }
  return fds;
}

}  // namespace

CounterSnapshot RunDistributedNode(const SystemConfig& config, const DistributedOptions& opts,
                                   const std::function<void(Runtime&)>& body) {
  MIDWAY_CHECK_LT(opts.rank, opts.num_procs);
  EpollTransport transport(opts.rank, opts.num_procs, ConnectMesh(opts));

  Runtime runtime(config, opts.rank, &transport);
  std::thread comm([&runtime] { runtime.CommLoop(); });
  body(runtime);
  // Keep serving protocol messages until every rank is done, then tear down.
  runtime.FinishParallel();
  runtime.StopReliability();
  transport.Shutdown();
  comm.join();
  return CounterSnapshot::From(runtime.counters());
}

}  // namespace midway
