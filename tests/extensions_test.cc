// Tests for the §3.5 extension strategies: the update queue (sequential-merge heuristic,
// overflow fallback, history via applied updates) and the hybrid VM-protected-dirtybit-pages
// first level (fault-driven cover bits, unchanged store fast path).
#include <cstring>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/midway.h"
#include "src/core/rt_strategy.h"
#include "src/core/strategy.h"

namespace midway {
namespace {

struct Fixture {
  SystemConfig config;
  RegionTable regions;
  Counters counters;
  std::unique_ptr<DetectionStrategy> strategy;
  Region* region = nullptr;

  explicit Fixture(DetectionMode mode, size_t size = 1 << 16, uint32_t queue_limit = 4096) {
    config.mode = mode;
    config.update_queue_limit = queue_limit;
    strategy = MakeStrategy(config, &regions, &counters);
    region = regions.Create(size, /*line_size=*/8, /*shared=*/true,
                            /*mmap_dirtybits=*/mode == DetectionMode::kRtHybrid);
    strategy->AttachRegion(region);
    strategy->OnBeginParallel();
  }

  void WriteU64(uint32_t offset, uint64_t value) {
    strategy->NoteWrite(region->header(), offset, 8);
    std::memcpy(region->data() + offset, &value, 8);
  }

  Binding WholeBinding() {
    Binding b;
    b.ranges = {GlobalRange{{region->id(), 0}, static_cast<uint32_t>(region->size())}};
    return b;
  }
};

// --- Update queue ---------------------------------------------------------------------------

TEST(UpdateQueueTest, SequentialWritesMergeIntoOneRun) {
  Fixture f(DetectionMode::kRtQueue);
  auto* q = static_cast<RtQueueStrategy*>(f.strategy.get());
  for (uint32_t i = 0; i < 100; ++i) {
    f.WriteU64(i * 8, i);  // perfectly sequential: the paper's common case
  }
  EXPECT_EQ(q->QueueLength(f.region->id()), 1u);
  auto snap = CounterSnapshot::From(f.counters);
  EXPECT_EQ(snap.queue_appends, 1u);
  EXPECT_EQ(snap.queue_merges, 99u);
}

TEST(UpdateQueueTest, ScatteredWritesAppendSeparately) {
  Fixture f(DetectionMode::kRtQueue);
  auto* q = static_cast<RtQueueStrategy*>(f.strategy.get());
  for (uint32_t i = 0; i < 10; ++i) {
    f.WriteU64(i * 1024, i);  // far apart: no merging
  }
  EXPECT_EQ(q->QueueLength(f.region->id()), 10u);
}

TEST(UpdateQueueTest, CollectionScansOnlyQueuedRuns) {
  Fixture f(DetectionMode::kRtQueue);
  f.WriteU64(0, 1);
  f.WriteU64(32768, 2);
  UpdateSet out;
  f.strategy->Collect(f.WholeBinding(), 0, 9, &out);
  ASSERT_EQ(out.size(), 2u);
  auto snap = CounterSnapshot::From(f.counters);
  // Two dirty reads, zero full-region clean scans: cost proportional to dirty data, not to
  // the 8192 lines of shared data.
  EXPECT_EQ(snap.dirty_dirtybits_read, 2u);
  EXPECT_LT(snap.clean_dirtybits_read, 16u);
}

TEST(UpdateQueueTest, OverflowFallsBackToFullScan) {
  Fixture f(DetectionMode::kRtQueue, 1 << 16, /*queue_limit=*/8);
  auto* q = static_cast<RtQueueStrategy*>(f.strategy.get());
  for (uint32_t i = 0; i < 64; ++i) {
    f.WriteU64((i * 997 % 8000) * 8, i);  // scattered: overflows the tiny queue
  }
  EXPECT_TRUE(q->QueueOverflowed(f.region->id()));
  EXPECT_GE(CounterSnapshot::From(f.counters).queue_overflows, 1u);
  // Collection still finds every write (full scan fallback).
  UpdateSet out;
  f.strategy->Collect(f.WholeBinding(), 0, 99, &out);
  uint64_t bytes = 0;
  for (const auto& e : out) bytes += e.length;
  EXPECT_EQ(bytes / 8, 64u);  // 64 distinct lines (997 is coprime with 8000)
  // The fallback scanned the whole region.
  EXPECT_GE(CounterSnapshot::From(f.counters).clean_dirtybits_read, 8000u);
}

TEST(UpdateQueueTest, RepeatedWritesToSameWindowDoNotDuplicate) {
  Fixture f(DetectionMode::kRtQueue);
  for (int round = 0; round < 3; ++round) {
    f.WriteU64(64, round);
    f.WriteU64(4096, round);  // alternate targets so the tail merge cannot combine them
  }
  UpdateSet out;
  f.strategy->Collect(f.WholeBinding(), 0, 9, &out);
  uint64_t bytes = 0;
  for (const auto& e : out) bytes += e.length;
  EXPECT_EQ(bytes, 16u);  // two lines, shipped once each
}

TEST(UpdateQueueTest, AppliedUpdatesEnterTheQueue) {
  Fixture sender(DetectionMode::kRtQueue);
  Fixture relay(DetectionMode::kRtQueue);
  sender.WriteU64(128, 0x42);
  UpdateSet updates;
  sender.strategy->Collect(sender.WholeBinding(), 0, 10, &updates);
  for (const auto& e : updates) relay.strategy->ApplyEntry(e);
  // The relay can serve a brand-new requester (since = 0) purely from its queue.
  UpdateSet relayed;
  relay.strategy->Collect(relay.WholeBinding(), 0, 20, &relayed);
  ASSERT_EQ(relayed.size(), 1u);
  EXPECT_EQ(relayed[0].addr.offset, 128u);
  EXPECT_EQ(relayed[0].ts, 10u);  // preserves the original modification time
}

// --- Hybrid (VM-protected dirtybit pages) ----------------------------------------------------

TEST(HybridTest, StoreFastPathIsUnchanged) {
  Fixture f(DetectionMode::kRtHybrid);
  f.WriteU64(0, 1);
  auto snap = CounterSnapshot::From(f.counters);
  EXPECT_EQ(snap.dirtybits_set, 1u);
  // The first-level bit was set by the *fault*, not by an extra instrumented store.
  EXPECT_EQ(snap.first_level_set, 1u);
  // More writes on the same dirtybit page fault no further.
  for (uint32_t i = 1; i < 100; ++i) f.WriteU64(i * 8, i);
  snap = CounterSnapshot::From(f.counters);
  EXPECT_EQ(snap.first_level_set, 1u);
  EXPECT_EQ(snap.dirtybits_set, 100u);
}

TEST(HybridTest, CollectionSkipsUnfaultedCoverPages) {
  Fixture f(DetectionMode::kRtHybrid);  // 64 KB region, 8192 lines, 16 dirtybit pages
  f.WriteU64(0, 7);  // lines 0..511 covered by dirtybit page 0
  UpdateSet out;
  f.strategy->Collect(f.WholeBinding(), 0, 5, &out);
  ASSERT_EQ(out.size(), 1u);
  auto snap = CounterSnapshot::From(f.counters);
  EXPECT_EQ(snap.first_level_skips, 15u);
  EXPECT_EQ(snap.dirty_dirtybits_read, 1u);
  // 511 line reads within the faulted cover page + 15 one-read skips.
  EXPECT_EQ(snap.clean_dirtybits_read, 511u + 15u);
}

TEST(HybridTest, ApplyRaisesCoverViaFault) {
  Fixture sender(DetectionMode::kRtHybrid);
  Fixture relay(DetectionMode::kRtHybrid);
  sender.WriteU64(0x8000, 9);  // a high line, cover page 8
  UpdateSet updates;
  sender.strategy->Collect(sender.WholeBinding(), 0, 11, &updates);
  ASSERT_EQ(updates.size(), 1u);
  relay.strategy->ApplyEntry(updates[0]);  // the slot store faults at the relay
  UpdateSet relayed;
  relay.strategy->Collect(relay.WholeBinding(), 0, 22, &relayed);
  ASSERT_EQ(relayed.size(), 1u);
  EXPECT_EQ(relayed[0].addr.offset, 0x8000u);
}

// --- Randomized whole-program property test ---------------------------------------------------

struct ProgramCase {
  DetectionMode mode;
  uint64_t seed;
};

class RandomProgramTest : public ::testing::TestWithParam<ProgramCase> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, RandomProgramTest,
    ::testing::ValuesIn([] {
      std::vector<ProgramCase> cases;
      for (DetectionMode mode :
           {DetectionMode::kRt, DetectionMode::kVmSoft, DetectionMode::kVmSigsegv,
            DetectionMode::kTwinAll, DetectionMode::kRtQueue, DetectionMode::kRtHybrid}) {
        for (uint64_t seed : {11u, 22u}) {
          cases.push_back({mode, seed});
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<ProgramCase>& info) {
      std::string name = DetectionModeName(info.param.mode);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_s" + std::to_string(info.param.seed);
    });

// A random SPMD program over K locks, each guarding a disjoint slice. Every critical
// section *adds* to the cells it owns, so the final state is order-independent: each cell
// must equal the total number of increments applied to it across all processors.
TEST_P(RandomProgramTest, RandomLockBarrierProgramConverges) {
  constexpr int kProcs = 4;
  constexpr int kLocks = 6;
  constexpr int kSlice = 32;  // int64 cells per lock
  constexpr int kOpsPerProc = 60;

  SystemConfig config;
  config.mode = GetParam().mode;
  config.num_procs = kProcs;
  const uint64_t seed = GetParam().seed;

  // Precompute, deterministically, how many times each processor increments each slice.
  std::vector<std::vector<int>> plan(kProcs, std::vector<int>(kLocks, 0));
  for (int p = 0; p < kProcs; ++p) {
    SplitMix64 rng(seed * 1000 + p);
    for (int op = 0; op < kOpsPerProc; ++op) {
      plan[p][rng.NextBounded(kLocks)]++;
    }
  }
  std::vector<int64_t> expected_per_slice(kLocks, 0);
  for (int p = 0; p < kProcs; ++p) {
    for (int l = 0; l < kLocks; ++l) expected_per_slice[l] += plan[p][l];
  }

  bool verified = false;
  System system(config);
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, kLocks * kSlice);
    std::vector<LockId> locks(kLocks);
    for (int l = 0; l < kLocks; ++l) {
      locks[l] = rt.CreateLock();
      rt.Bind(locks[l], {data.Range(l * kSlice, kSlice)});
    }
    BarrierId mid = rt.CreateBarrier();
    rt.BindBarrier(mid, {});
    BarrierId done = rt.CreateBarrier();
    rt.BindBarrier(done, {});
    for (size_t i = 0; i < data.size(); ++i) data.raw_mutable()[i] = 0;
    rt.BeginParallel();

    SplitMix64 rng(seed * 1000 + rt.self());
    for (int op = 0; op < kOpsPerProc; ++op) {
      const int l = static_cast<int>(rng.NextBounded(kLocks));
      rt.Acquire(locks[l]);
      for (int i = 0; i < kSlice; ++i) {
        data[l * kSlice + i] = data.Get(l * kSlice + i) + 1;
      }
      rt.Release(locks[l]);
      if (op == kOpsPerProc / 2) {
        rt.BarrierWait(mid);  // a mid-program global synchronization for good measure
      }
    }
    rt.BarrierWait(done);

    if (rt.self() == 0) {
      bool ok = true;
      for (int l = 0; l < kLocks && ok; ++l) {
        rt.Acquire(locks[l], LockMode::kShared);
        for (int i = 0; i < kSlice; ++i) {
          if (data.Get(l * kSlice + i) != expected_per_slice[l]) {
            ok = false;
            break;
          }
        }
        rt.Release(locks[l]);
      }
      verified = ok;
    }
    rt.BarrierWait(done);
  });
  EXPECT_TRUE(verified);
  EXPECT_EQ(system.Total().race_warnings, 0u);
}

}  // namespace
}  // namespace midway
