// Multi-process integration tests: each DSM processor is a forked OS process over the TCP
// mesh (one per-rank EpollTransport per process) — the paper's network-of-workstations
// shape. Children run the SPMD body and _exit
// with a status the parent asserts on after waitpid.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/core/distributed.h"
#include "src/core/midway.h"
#include "src/net/socket_util.h"

namespace midway {
namespace {

constexpr int kProcs = 3;

// Returns 0 on success (suitable for _exit). `observed` is filled on rank 0.
int CounterBody(const SystemConfig& config, const DistributedOptions& opts, int* observed) {
  bool ok = true;
  RunDistributedNode(config, opts, [&](Runtime& rt) {
    auto counter = MakeSharedArray<int64_t>(rt, 1);
    auto cells = MakeSharedArray<int64_t>(rt, kProcs);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {counter.WholeRange()});
    BarrierId publish = rt.CreateBarrier();
    rt.BindBarrier(publish, {cells.Range(rt.self(), 1)});
    counter.raw_mutable()[0] = 0;
    for (int i = 0; i < kProcs; ++i) cells.raw_mutable()[i] = 0;
    rt.BeginParallel();

    for (int i = 0; i < 10; ++i) {
      rt.Acquire(lock);
      counter[0] = counter.Get(0) + 1;
      rt.Release(lock);
    }
    cells[rt.self()] = 100 + rt.self();
    rt.BarrierWait(publish);
    // Every process must see every other process's cell.
    for (int p = 0; p < kProcs; ++p) {
      if (cells.Get(p) != 100 + p) ok = false;
    }
    if (rt.self() == 0) {
      rt.Acquire(lock);
      if (observed != nullptr) *observed = static_cast<int>(counter.Get(0));
      rt.Release(lock);
    }
  });
  return ok ? 0 : 2;
}

class DistributedTest : public ::testing::TestWithParam<DetectionMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, DistributedTest,
                         ::testing::Values(DetectionMode::kRt, DetectionMode::kVmSoft,
                                           DetectionMode::kVmSigsegv),
                         [](const ::testing::TestParamInfo<DetectionMode>& info) {
                           std::string name = DetectionModeName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

TEST_P(DistributedTest, CounterAndBarrierAcrossProcesses) {
  SystemConfig config;
  config.mode = GetParam();
  config.num_procs = kProcs;

  uint16_t port = 0;
  int listener = net::Listen("127.0.0.1", &port);
  ASSERT_GE(listener, 0);

  std::vector<pid_t> children;
  for (NodeId rank = 1; rank < kProcs; ++rank) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(listener);
      DistributedOptions opts;
      opts.rank = rank;
      opts.num_procs = kProcs;
      opts.coordinator_port = port;
      _exit(CounterBody(config, opts, nullptr));
    }
    children.push_back(pid);
  }

  DistributedOptions opts;
  opts.rank = 0;
  opts.num_procs = kProcs;
  opts.adopted_listener_fd = listener;
  int observed = -1;
  int my_status = CounterBody(config, opts, &observed);
  EXPECT_EQ(my_status, 0);
  EXPECT_EQ(observed, kProcs * 10);

  for (pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
}

TEST_P(DistributedTest, GrantLargerThanAReceiveBufferAcrossProcesses) {
  // Rank 0 rebinds a lock to 320 KiB and writes all of it; rank 1's next acquire finds its
  // binding stale, so the grant ships the whole range in one frame. That frame is larger
  // than a 256 KiB pooled receive buffer: the sender queues it under backpressure and the
  // receiver carries its prefix into a dedicated buffer (the straddle path).
  constexpr int kElems = 40 * 1024;
  SystemConfig config;
  config.mode = GetParam();
  config.num_procs = 2;

  uint16_t port = 0;
  int listener = net::Listen("127.0.0.1", &port);
  ASSERT_GE(listener, 0);

  auto body = [](Runtime& rt) -> bool {
    auto data = MakeSharedArray<int64_t>(rt, kElems);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.Range(0, 8)});
    BarrierId phase = rt.CreateBarrier();
    for (int i = 0; i < kElems; ++i) data.raw_mutable()[i] = 0;
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      rt.Rebind(lock, {data.WholeRange()});
      for (int i = 0; i < kElems; ++i) data[i] = 7 * i + 1;
      rt.Release(lock);
    }
    rt.BarrierWait(phase);
    bool ok = true;
    if (rt.self() == 1) {
      rt.Acquire(lock);
      for (int i = 0; i < kElems; ++i) {
        if (data.Get(i) != 7 * i + 1) ok = false;
      }
      rt.Release(lock);
    }
    rt.BarrierWait(phase);
    return ok;
  };

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(listener);
    DistributedOptions opts;
    opts.rank = 1;
    opts.num_procs = 2;
    opts.coordinator_port = port;
    bool ok = true;
    RunDistributedNode(config, opts, [&](Runtime& rt) { ok = body(rt); });
    _exit(ok ? 0 : 2);
  }
  DistributedOptions opts;
  opts.rank = 0;
  opts.num_procs = 2;
  opts.adopted_listener_fd = listener;
  bool ok = true;
  CounterSnapshot stats =
      RunDistributedNode(config, opts, [&](Runtime& rt) { ok = body(rt); });
  EXPECT_TRUE(ok);
  EXPECT_GE(stats.data_bytes_sent, kElems * sizeof(int64_t));

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "rank 1 saw a wrong value";
}

TEST(DistributedTest2, RebindingAcrossProcesses) {
  SystemConfig config;
  config.mode = DetectionMode::kVmSoft;
  config.num_procs = 2;

  uint16_t port = 0;
  int listener = net::Listen("127.0.0.1", &port);
  ASSERT_GE(listener, 0);

  auto body = [](Runtime& rt) -> bool {
    auto data = MakeSharedArray<int32_t>(rt, 128);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.Range(0, 8)});
    BarrierId phase = rt.CreateBarrier();
    for (int i = 0; i < 128; ++i) data.raw_mutable()[i] = 0;
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      rt.Rebind(lock, {data.Range(64, 16)});
      for (int i = 64; i < 80; ++i) data[i] = i;
      rt.Release(lock);
    }
    rt.BarrierWait(phase);
    bool ok = true;
    if (rt.self() == 1) {
      rt.Acquire(lock);  // stale binding: full send across the real socket
      for (int i = 64; i < 80; ++i) {
        if (data.Get(i) != i) ok = false;
      }
      rt.Release(lock);
    }
    rt.BarrierWait(phase);
    return ok;
  };

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(listener);
    DistributedOptions opts;
    opts.rank = 1;
    opts.num_procs = 2;
    opts.coordinator_port = port;
    bool ok = true;
    RunDistributedNode(config, opts, [&](Runtime& rt) { ok = body(rt); });
    _exit(ok ? 0 : 2);
  }
  DistributedOptions opts;
  opts.rank = 0;
  opts.num_procs = 2;
  opts.adopted_listener_fd = listener;
  bool ok = true;
  CounterSnapshot stats =
      RunDistributedNode(config, opts, [&](Runtime& rt) { ok = body(rt); });
  EXPECT_TRUE(ok);
  EXPECT_GT(stats.lock_grants + stats.lock_acquires, 0u);

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace midway
