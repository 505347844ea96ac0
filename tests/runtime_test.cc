// End-to-end tests of the entry-consistency protocol engine across all detection strategies.
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/midway.h"

namespace midway {
namespace {

std::vector<DetectionMode> AllDsmModes() {
  return {DetectionMode::kRt,      DetectionMode::kVmSoft,  DetectionMode::kVmSigsegv,
          DetectionMode::kBlast,   DetectionMode::kTwinAll, DetectionMode::kRtQueue,
          DetectionMode::kRtHybrid};
}

SystemConfig MakeConfig(DetectionMode mode, uint16_t procs) {
  SystemConfig config;
  config.mode = mode;
  config.num_procs = procs;
  return config;
}

class AllModesTest : public ::testing::TestWithParam<DetectionMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, AllModesTest, ::testing::ValuesIn(AllDsmModes()),
                         [](const ::testing::TestParamInfo<DetectionMode>& info) {
                           std::string name = DetectionModeName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

// A shared counter incremented under an exclusive lock must see every increment.
TEST_P(AllModesTest, LockProtectedCounter) {
  constexpr int kProcs = 4;
  constexpr int kIncrementsPerProc = 25;
  System system(MakeConfig(GetParam(), kProcs));
  int observed = -1;
  system.Run([&](Runtime& rt) {
    auto counter = MakeSharedArray<int64_t>(rt, 1);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {counter.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    for (int i = 0; i < kIncrementsPerProc; ++i) {
      rt.Acquire(lock);
      counter[0] = counter.Get(0) + 1;
      rt.Release(lock);
    }
    rt.BarrierWait(done);
    if (rt.self() == 0) {
      // Node 0 must reacquire to observe the final value.
      rt.Acquire(lock);
      observed = static_cast<int>(counter.Get(0));
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(observed, kProcs * kIncrementsPerProc);
}

// Barrier-bound data written by each node must be visible everywhere after the barrier.
TEST_P(AllModesTest, BarrierPropagatesPartitionedWrites) {
  if (GetParam() == DetectionMode::kBlast) {
    GTEST_SKIP() << "Blast supports lock-bound data only";
  }
  constexpr int kProcs = 4;
  constexpr int kPerProc = 64;
  std::vector<int> sums(kProcs, -1);
  System system(MakeConfig(GetParam(), kProcs));
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, kProcs * kPerProc);
    BarrierId barrier = rt.CreateBarrier();
    rt.BindBarrier(barrier, {data.WholeRange()});
    rt.BeginParallel();
    for (int i = 0; i < kPerProc; ++i) {
      data[rt.self() * kPerProc + i] = rt.self() * 1000 + i;
    }
    rt.BarrierWait(barrier);
    int sum = 0;
    for (size_t i = 0; i < data.size(); ++i) sum += data.Get(i);
    sums[rt.self()] = sum;
  });
  int expected = 0;
  for (int p = 0; p < kProcs; ++p) {
    for (int i = 0; i < kPerProc; ++i) expected += p * 1000 + i;
  }
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_EQ(sums[p], expected) << "node " << p;
  }
}

// The same lock handed around a ring: each node appends its id; order must be a valid
// interleaving with all contributions present.
TEST_P(AllModesTest, LockRingVisibility) {
  constexpr int kProcs = 3;
  constexpr int kRounds = 10;
  int final_count = -1;
  System system(MakeConfig(GetParam(), kProcs));
  system.Run([&](Runtime& rt) {
    auto log = MakeSharedArray<int32_t>(rt, kProcs * kRounds + 1);  // [0] = count
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {log.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BindBarrier(done, {});
    rt.BeginParallel();
    for (int r = 0; r < kRounds; ++r) {
      rt.Acquire(lock);
      int count = log.Get(0);
      log[1 + count] = rt.self();
      log[0] = count + 1;
      rt.Release(lock);
    }
    rt.BarrierWait(done);
    if (rt.self() == 0) {
      rt.Acquire(lock);
      final_count = log.Get(0);
      std::vector<int> per_node(kProcs, 0);
      for (int i = 0; i < final_count; ++i) {
        per_node[log.Get(1 + i)]++;
      }
      for (int p = 0; p < kProcs; ++p) {
        EXPECT_EQ(per_node[p], kRounds) << "node " << p;
      }
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(final_count, kProcs * kRounds);
}

// Shared (read) mode: many concurrent readers see the writer's data.
TEST_P(AllModesTest, SharedReaders) {
  constexpr int kProcs = 4;
  std::vector<int64_t> seen(kProcs, -1);
  System system(MakeConfig(GetParam(), kProcs));
  system.Run([&](Runtime& rt) {
    auto value = MakeSharedArray<int64_t>(rt, 8);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {value.WholeRange()});
    BarrierId phase = rt.CreateBarrier();
    rt.BindBarrier(phase, {});
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock, LockMode::kExclusive);
      for (int i = 0; i < 8; ++i) value[i] = 41 + i;
      rt.Release(lock);
    }
    rt.BarrierWait(phase);
    rt.Acquire(lock, LockMode::kShared);
    int64_t sum = 0;
    for (int i = 0; i < 8; ++i) sum += value.Get(i);
    seen[rt.self()] = sum;
    rt.Release(lock);
    rt.BarrierWait(phase);
  });
  int64_t expected = 0;
  for (int i = 0; i < 8; ++i) expected += 41 + i;
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_EQ(seen[p], expected) << "node " << p;
  }
}

// Writers queued behind readers must wait, and their writes must be seen afterwards.
TEST_P(AllModesTest, WriterAfterReaders) {
  constexpr int kProcs = 4;
  constexpr int kRounds = 5;
  std::vector<int64_t> finals(kProcs, -1);
  System system(MakeConfig(GetParam(), kProcs));
  system.Run([&](Runtime& rt) {
    auto value = MakeSharedArray<int64_t>(rt, 1);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {value.WholeRange()});
    BarrierId phase = rt.CreateBarrier();
    rt.BindBarrier(phase, {});
    rt.BeginParallel();
    for (int r = 0; r < kRounds; ++r) {
      if (rt.self() == r % kProcs) {
        rt.Acquire(lock, LockMode::kExclusive);
        value[0] = value.Get(0) + 1;
        rt.Release(lock);
      } else {
        rt.Acquire(lock, LockMode::kShared);
        int64_t v = value.Get(0);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, kRounds);
        rt.Release(lock);
      }
      rt.BarrierWait(phase);
    }
    rt.Acquire(lock, LockMode::kShared);
    finals[rt.self()] = value.Get(0);
    rt.Release(lock);
    rt.BarrierWait(phase);
  });
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_EQ(finals[p], kRounds) << "node " << p;
  }
}

// Rebinding a lock (quicksort's pattern): the new binding's data must transfer.
TEST_P(AllModesTest, RebindTransfersNewRange) {
  constexpr int kProcs = 3;
  std::vector<int> results(kProcs, -1);
  System system(MakeConfig(GetParam(), kProcs));
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, 256);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.Range(0, 16)});
    BarrierId phase = rt.CreateBarrier();
    rt.BindBarrier(phase, {});
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      for (int i = 0; i < 16; ++i) data[i] = 7;
      // Rebind to a disjoint window and fill it too.
      rt.Rebind(lock, {data.Range(100, 32)});
      for (int i = 100; i < 132; ++i) data[i] = 9;
      rt.Release(lock);
    }
    rt.BarrierWait(phase);
    rt.Acquire(lock);
    int sum = 0;
    for (int i = 100; i < 132; ++i) sum += data.Get(i);
    results[rt.self()] = sum;
    rt.Release(lock);
    rt.BarrierWait(phase);
  });
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_EQ(results[p], 32 * 9) << "node " << p;
  }
}

// Local reacquire of a released lock must not generate messages.
TEST(RuntimeTest, LocalReacquireFastPath) {
  System system(MakeConfig(DetectionMode::kRt, 2));
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, 4);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    if (rt.self() == 0) {
      for (int i = 0; i < 10; ++i) {
        rt.Acquire(lock);
        data[0] = i;
        rt.Release(lock);
      }
    }
    rt.BarrierWait(done);
  });
  auto s0 = system.Snapshots()[0];
  EXPECT_EQ(s0.lock_acquires, 10u);
  EXPECT_EQ(s0.lock_acquires_local, 10u);
}

// Counters: RT sets dirtybits, VM takes page faults, exactly once per amortization window.
TEST(RuntimeTest, RtCountsDirtybitSets) {
  System system(MakeConfig(DetectionMode::kRt, 2));
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 128, /*line_size=*/8);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      for (int i = 0; i < 128; ++i) data[i] = i;
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(system.Snapshots()[0].dirtybits_set, 128u);
  EXPECT_EQ(system.Snapshots()[1].dirtybits_set, 0u);
}

TEST(RuntimeTest, VmSoftAmortizesFaults) {
  SystemConfig config = MakeConfig(DetectionMode::kVmSoft, 2);
  config.page_size = 4096;
  System system(config);
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 1024);  // 8 KB = 2 pages
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      for (int i = 0; i < 1024; ++i) data[i] = i;  // 1024 stores, 2 faults
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(system.Snapshots()[0].write_faults, 2u);
  EXPECT_EQ(system.Snapshots()[0].dirtybits_set, 0u);
}

TEST(RuntimeTest, VmSigsegvTakesRealFaults) {
  SystemConfig config = MakeConfig(DetectionMode::kVmSigsegv, 2);
  System system(config);
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 1024);  // 2 pages
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      for (int i = 0; i < 1024; ++i) data[i] = i;
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(system.Snapshots()[0].write_faults, 2u);
}

// Writes during the initialization phase must not be treated as modifications.
TEST_P(AllModesTest, InitializationWritesAreNotModifications) {
  System system(MakeConfig(GetParam(), 2));
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 64);
    for (int i = 0; i < 64; ++i) data[i] = 100 + i;  // SPMD init, identical everywhere
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    rt.Acquire(lock);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(data.Get(i), 100 + i);
    }
    rt.Release(lock);
    rt.BarrierWait(done);
  });
  EXPECT_EQ(system.Snapshots()[0].dirtybits_set, 0u);
  EXPECT_EQ(system.Snapshots()[0].write_faults, 0u);
}

// Writes to private regions through the instrumented path hit the no-op template and are
// counted as misclassifications.
TEST(RuntimeTest, MisclassifiedPrivateWrites) {
  System system(MakeConfig(DetectionMode::kRt, 1));
  system.Run([&](Runtime& rt) {
    auto priv = MakePrivateArray<int32_t>(rt, 32);
    rt.BeginParallel();
    for (int i = 0; i < 32; ++i) priv[i] = i;
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(priv.Get(i), i);
    }
  });
  EXPECT_EQ(system.Snapshots()[0].dirtybits_misclassified, 32u);
  EXPECT_EQ(system.Snapshots()[0].dirtybits_set, 0u);
}

}  // namespace
}  // namespace midway
