// Event-loop TCP transport: one epoll loop thread per node multiplexes all of that node's
// mesh connections over non-blocking sockets. It is the only TCP transport, in two shapes:
//
//   in-process — EpollTransport(num_nodes) hosts every node of the DSM in this process and
//                builds the mesh itself over localhost loopback pairs (N loop threads for an
//                N-node mesh, so 64+ node meshes are practical).
//   per-rank   — EpollTransport(self, num_nodes, peer_fds) hosts ONE node of a DSM whose
//                processors are separate OS processes (the paper's network of workstations).
//                The caller forms the mesh (see RunDistributedNode) and hands over one
//                connected socket per remote rank; nodes_[r] stays null for every r != self.
//
// Both shapes share one setup path, one event loop, one framing path and one backpressure
// path. The data path:
//
//   receive — each connection owns a FrameAssembler over pooled 256 KiB buffers; complete
//             frames are delivered to the mailbox as zero-copy views (Packet::Borrowed)
//             pinned by the buffer's shared_ptr, batched per wakeup under one mailbox lock.
//   send    — callers write opportunistically on the caller thread (the fast path is one
//             non-blocking writev straight from region memory, preserving the zero-copy
//             SendV pipeline); on EAGAIN the remainder is copied into a per-connection
//             pending queue flushed by the loop on EPOLLOUT. The queue is capped: senders
//             block (backpressure) once kMaxPendingBytes are buffered for one link.
#ifndef MIDWAY_SRC_NET_EPOLL_TRANSPORT_H_
#define MIDWAY_SRC_NET_EPOLL_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/net/recv_buffer.h"
#include "src/net/socket_util.h"
#include "src/net/transport.h"

namespace midway {

class EpollTransport final : public Transport {
 public:
  // Per-link pending-write cap; a sender blocks once this much is queued for one peer.
  static constexpr size_t kMaxPendingBytes = 4 * 1024 * 1024;

  // In-process mesh: hosts nodes 0..num_nodes-1 and connects every pair over localhost.
  explicit EpollTransport(NodeId num_nodes);
  // One rank of a multi-process mesh: hosts only `self`. peer_fds[r] is a connected,
  // non-blocking stream socket to rank r for every r != self (peer_fds[self] is ignored);
  // the transport takes ownership. Send/SendV must use src == self, Recv self == self.
  EpollTransport(NodeId self, NodeId num_nodes, std::vector<int> peer_fds);
  ~EpollTransport() override;

  EpollTransport(const EpollTransport&) = delete;
  EpollTransport& operator=(const EpollTransport&) = delete;

  NodeId NumNodes() const override { return num_nodes_; }
  void Send(NodeId src, NodeId dst, std::vector<std::byte> payload) override;
  void SendV(NodeId src, NodeId dst,
             std::span<const std::span<const std::byte>> segments) override;
  bool Recv(NodeId self, Packet* out) override;
  bool RecvBatch(NodeId self, std::vector<Packet>* out) override;
  void Shutdown() override;
  uint64_t BytesSent() const override { return bytes_sent_.load(std::memory_order_relaxed); }
  uint64_t PacketsSent() const override {
    return packets_sent_.load(std::memory_order_relaxed);
  }
  uint64_t RecvBytesCopied() const override;

 private:
  // One directed endpoint: the fd `owner` uses to talk to (and hear from) `peer`. The
  // receive side (assembler, closed flag) is touched only by owner's loop thread; the send
  // side is shared between caller threads and the loop, guarded by send_mu.
  struct Conn {
    int fd = -1;
    NodeId peer = 0;
    std::unique_ptr<net::FrameAssembler> assembler;
    bool closed = false;  // loop-thread only: deregistered after EOF/error

    std::mutex send_mu;
    std::condition_variable send_cv;
    std::deque<std::vector<std::byte>> pending;
    size_t pending_bytes = 0;
    size_t pending_off = 0;   // flushed prefix of pending.front()
    bool want_write = false;  // EPOLLOUT armed
    bool send_failed = false;
  };

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Packet> queue;
  };

  struct Node {
    NodeId self = 0;
    int epfd = -1;
    int wakefd = -1;
    net::RecvBufferPool pool;
    std::vector<std::unique_ptr<Conn>> conns;  // indexed by peer; [self] is null
    Mailbox mailbox;
    std::thread loop;
  };

  // Setup shared by both constructors: AddNode/AddConn populate nodes_, then Start
  // registers every conn with its node's epoll set and launches the loop threads.
  void AddNode(NodeId self);
  void AddConn(NodeId owner, NodeId peer, int fd);
  void Start();
  // The node hosted here for `id` (null for a per-rank transport's remote ranks).
  Node& LocalNode(NodeId id) {
    MIDWAY_DCHECK(id < num_nodes_ && nodes_[id] != nullptr);
    return *nodes_[id];
  }

  void EventLoop(NodeId self);
  void DrainRecv(Node& node, Conn& conn);
  void FlushPending(Node& node, Conn& conn);
  // Writes slices (header first) to conn, queueing any unwritten remainder. Blocks while
  // the pending queue is over the cap. Counters are the caller's responsibility.
  void SendSlices(Node& node, Conn& conn, const net::IoSlice* slices, size_t count,
                  size_t total);
  void Deliver(NodeId dst, Packet packet);
  void DeliverBatch(NodeId dst, std::vector<Packet>* batch);
  // Arms/disarms EPOLLOUT for conn's fd. Called with conn.send_mu held.
  void SetWantWrite(Node& node, Conn& conn, bool want);
  void WakeLoop(Node& node);

  NodeId num_nodes_;
  std::vector<std::unique_ptr<Node>> nodes_;  // indexed by node id; null if not hosted here
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> packets_sent_{0};
};

}  // namespace midway

#endif  // MIDWAY_SRC_NET_EPOLL_TRANSPORT_H_
