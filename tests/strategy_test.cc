// Unit tests for the detection strategies in isolation (no System/threads): trapping,
// collection, update application, twin lifecycle, and the exactly-once property.
#include <cstring>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/rt_strategy.h"
#include "src/core/sigsegv.h"
#include "src/core/strategy.h"
#include "src/core/vm_strategy.h"

namespace midway {
namespace {

struct Fixture {
  SystemConfig config;
  RegionTable regions;
  Counters counters;
  std::unique_ptr<DetectionStrategy> strategy;
  Region* region = nullptr;

  explicit Fixture(DetectionMode mode, uint32_t line_size = 8, size_t size = 1 << 16) {
    config.mode = mode;
    config.page_size = 4096;
    strategy = MakeStrategy(config, &regions, &counters);
    region = regions.Create(size, line_size, /*shared=*/true,
                            /*mmap_dirtybits=*/mode == DetectionMode::kRtHybrid);
    strategy->AttachRegion(region);
    strategy->OnBeginParallel();
  }

  // Simulates an instrumented store.
  void Write(uint32_t offset, const void* data, uint32_t len) {
    strategy->NoteWrite(region->header(), offset, len);
    std::memcpy(region->data() + offset, data, len);
  }
  void WriteU64(uint32_t offset, uint64_t value) { Write(offset, &value, 8); }

  Binding WholeBinding() {
    Binding b;
    b.ranges = {GlobalRange{{region->id(), 0}, static_cast<uint32_t>(region->size())}};
    return b;
  }
};

TEST(RtStrategyTest, CollectsExactlyTheWrittenLines) {
  Fixture f(DetectionMode::kRt);
  f.WriteU64(64, 0xAA);
  f.WriteU64(800, 0xBB);
  UpdateSet out;
  f.strategy->Collect(f.WholeBinding(), /*since=*/0, /*stamp_ts=*/10, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].addr.offset, 64u);
  EXPECT_EQ(out[0].length, 8u);
  EXPECT_EQ(out[0].ts, 10u);
  EXPECT_EQ(out[1].addr.offset, 800u);
}

TEST(RtStrategyTest, ConsecutiveLinesCoalesce) {
  Fixture f(DetectionMode::kRt);
  for (uint32_t i = 0; i < 16; ++i) f.WriteU64(256 + i * 8, i);
  UpdateSet out;
  f.strategy->Collect(f.WholeBinding(), 0, 5, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].addr.offset, 256u);
  EXPECT_EQ(out[0].length, 128u);
}

TEST(RtStrategyTest, SinceFiltersStampedLines) {
  Fixture f(DetectionMode::kRt);
  f.WriteU64(0, 1);
  UpdateSet first;
  f.strategy->Collect(f.WholeBinding(), 0, 10, &first);
  ASSERT_EQ(first.size(), 1u);
  // No new writes: nothing newer than ts 10.
  UpdateSet second;
  f.strategy->Collect(f.WholeBinding(), 10, 20, &second);
  EXPECT_TRUE(second.empty());
  // A newer write shows up.
  f.WriteU64(0, 2);
  UpdateSet third;
  f.strategy->Collect(f.WholeBinding(), 10, 30, &third);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].ts, 30u);
}

TEST(RtStrategyTest, CollectClipsToBindingWindow) {
  Fixture f(DetectionMode::kRt, /*line_size=*/64);
  uint64_t v = 7;
  f.Write(100, &v, 8);  // line [64,128)
  Binding b;
  b.ranges = {GlobalRange{{f.region->id(), 96}, 16}};  // covers [96,112) only
  UpdateSet out;
  f.strategy->Collect(b, 0, 9, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].addr.offset, 96u);
  EXPECT_EQ(out[0].length, 16u);
}

TEST(RtStrategyTest, ApplyIsExactlyOnce) {
  Fixture sender(DetectionMode::kRt);
  Fixture receiver(DetectionMode::kRt);
  sender.WriteU64(128, 0x1234);
  UpdateSet updates;
  sender.strategy->Collect(sender.WholeBinding(), 0, 50, &updates);
  ASSERT_EQ(updates.size(), 1u);

  receiver.strategy->ApplyEntry(updates[0]);
  EXPECT_EQ(*reinterpret_cast<uint64_t*>(receiver.region->data() + 128), 0x1234u);
  EXPECT_EQ(CounterSnapshot::From(receiver.counters).dirtybits_updated, 1u);

  // Applying the same (or older) update again is skipped.
  std::memset(receiver.region->data() + 128, 0, 8);
  receiver.strategy->ApplyEntry(updates[0]);
  EXPECT_EQ(*reinterpret_cast<uint64_t*>(receiver.region->data() + 128), 0u);
  auto snap = CounterSnapshot::From(receiver.counters);
  EXPECT_EQ(snap.dirtybits_updated, 1u);
  EXPECT_EQ(snap.redundant_bytes_skipped, 8u);
}

TEST(RtStrategyTest, ApplyDetectsRaceOnLocallyDirtyLine) {
  Fixture f(DetectionMode::kRt);
  f.config.detect_races = true;
  f.WriteU64(0, 1);  // local unstamped write
  UpdateEntry entry;
  entry.addr = {f.region->id(), 0};
  entry.length = 8;
  entry.ts = 99;
  const std::vector<std::byte> payload(8, std::byte{0x7});
  entry.BindCopy(payload);
  f.strategy->ApplyEntry(entry);
  EXPECT_EQ(CounterSnapshot::From(f.counters).race_warnings, 1u);
}

TEST(RtStrategyTest, MisclassifiedWritesHitPrivateTemplate) {
  Fixture f(DetectionMode::kRt);
  Region* priv = f.regions.Create(4096, 8, /*shared=*/false);
  f.strategy->AttachRegion(priv);
  f.strategy->NoteWrite(priv->header(), 0, 8);
  f.strategy->NoteWrite(priv->header(), 8, 8);
  auto snap = CounterSnapshot::From(f.counters);
  EXPECT_EQ(snap.dirtybits_misclassified, 2u);
  EXPECT_EQ(snap.dirtybits_set, 0u);
}

TEST(RtStrategyTest, MultiLineWriteSetsEveryCoveredLine) {
  Fixture f(DetectionMode::kRt, /*line_size=*/8);
  std::vector<std::byte> blob(40, std::byte{0xEE});
  f.Write(4, blob.data(), 40);  // spans lines 0..5
  UpdateSet out;
  f.strategy->Collect(f.WholeBinding(), 0, 3, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].addr.offset, 0u);
  EXPECT_EQ(out[0].length, 48u);
  EXPECT_EQ(CounterSnapshot::From(f.counters).dirtybits_set, 6u);
}

// --- VM strategies --------------------------------------------------------------------------

class VmModeTest : public ::testing::TestWithParam<DetectionMode> {};

INSTANTIATE_TEST_SUITE_P(Backends, VmModeTest,
                         ::testing::Values(DetectionMode::kVmSoft, DetectionMode::kVmSigsegv),
                         [](const ::testing::TestParamInfo<DetectionMode>& info) {
                           return info.param == DetectionMode::kVmSoft ? "soft" : "sigsegv";
                         });

TEST_P(VmModeTest, FirstWriteFaultsOncePerPage) {
  Fixture f(GetParam());
  for (int i = 0; i < 100; ++i) {
    f.WriteU64(i * 8, i);  // all on page 0
  }
  f.WriteU64(5000, 1);  // page 1
  auto snap = CounterSnapshot::From(f.counters);
  EXPECT_EQ(snap.write_faults, 2u);
}

TEST_P(VmModeTest, CollectDiffsOnlyDirtyPages) {
  Fixture f(GetParam());
  // Values with every word nonzero: the diff is word (4-byte) granular, so a value whose
  // high word matches the twin would correctly ship only 4 bytes.
  f.WriteU64(0, 0x4242424242424242ull);
  f.WriteU64(8192, 0x4343434343434343ull);
  UpdateSet out;
  f.strategy->Collect(f.WholeBinding(), 0, 0, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].addr.offset, 0u);
  EXPECT_EQ(out[0].length, 8u);
  EXPECT_EQ(out[1].addr.offset, 8192u);
  EXPECT_EQ(CounterSnapshot::From(f.counters).pages_diffed, 2u);
}

TEST_P(VmModeTest, ShippedRangesAreNotCollectedTwice) {
  Fixture f(GetParam());
  f.WriteU64(64, 1);
  UpdateSet first;
  f.strategy->Collect(f.WholeBinding(), 0, 0, &first);
  EXPECT_EQ(first.size(), 1u);
  UpdateSet second;
  f.strategy->Collect(f.WholeBinding(), 0, 0, &second);
  EXPECT_TRUE(second.empty());  // twin was refreshed
}

TEST_P(VmModeTest, PageRetiresAtSyncPointWhenFullyShipped) {
  Fixture f(GetParam());
  f.WriteU64(64, 1);
  UpdateSet out;
  f.strategy->Collect(f.WholeBinding(), 0, 0, &out);
  auto* vm = static_cast<VmStrategy*>(f.strategy.get());
  PageTable* table = vm->page_table(f.region->id());
  EXPECT_TRUE(table->IsDirty(0));
  f.strategy->OnSyncPoint();
  EXPECT_FALSE(table->IsDirty(0));
  EXPECT_EQ(CounterSnapshot::From(f.counters).pages_write_protected, 1u);
  // The next write faults again.
  f.WriteU64(64, 2);
  EXPECT_EQ(CounterSnapshot::From(f.counters).write_faults, 2u);
}

TEST_P(VmModeTest, PageStaysDirtyWhileUnshippedDataRemains) {
  Fixture f(GetParam());
  f.WriteU64(0, 1);
  f.WriteU64(512, 2);
  // Only [0,8) is bound; [512,520) stays unshipped.
  Binding b;
  b.ranges = {GlobalRange{{f.region->id(), 0}, 8}};
  UpdateSet out;
  f.strategy->Collect(b, 0, 0, &out);
  EXPECT_EQ(out.size(), 1u);
  f.strategy->OnSyncPoint();
  auto* vm = static_cast<VmStrategy*>(f.strategy.get());
  EXPECT_TRUE(vm->page_table(f.region->id())->IsDirty(0));
  EXPECT_EQ(CounterSnapshot::From(f.counters).pages_write_protected, 0u);
}

TEST_P(VmModeTest, ApplyUpdatesTwinOnDirtyPages) {
  Fixture f(GetParam());
  f.WriteU64(0, 1);  // page 0 dirty (twinned)
  UpdateEntry entry;
  entry.addr = {f.region->id(), 128};
  const std::vector<std::byte> payload(8, std::byte{0x9});
  entry.BindCopy(payload);
  f.strategy->ApplyEntry(entry);
  // The update landed in both the page and the twin, so it is not collected as a local mod.
  UpdateSet out;
  Binding b;
  b.ranges = {GlobalRange{{f.region->id(), 128}, 8}};
  f.strategy->Collect(b, 0, 0, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(CounterSnapshot::From(f.counters).twin_bytes_updated, 8u);
}

TEST_P(VmModeTest, ApplyToCleanPageLeavesItClean) {
  Fixture f(GetParam());
  UpdateEntry entry;
  entry.addr = {f.region->id(), 4096};
  const std::vector<std::byte> payload(16, std::byte{0x3});
  entry.BindCopy(payload);
  f.strategy->ApplyEntry(entry);
  EXPECT_EQ(std::memcmp(f.region->data() + 4096, entry.data.data(), 16), 0);
  auto* vm = static_cast<VmStrategy*>(f.strategy.get());
  EXPECT_FALSE(vm->page_table(f.region->id())->IsDirty(1));
  EXPECT_EQ(CounterSnapshot::From(f.counters).write_faults, 0u);
  // And a subsequent local write to that page still faults (it was re-protected).
  f.WriteU64(4096 + 64, 5);
  EXPECT_EQ(CounterSnapshot::From(f.counters).write_faults, 1u);
}

TEST(SigsegvTest, RegistryTracksRegions) {
  const size_t before = ActiveFaultRegions();
  {
    Fixture f(DetectionMode::kVmSigsegv);
    EXPECT_EQ(ActiveFaultRegions(), before + 1);
  }
  EXPECT_EQ(ActiveFaultRegions(), before);
}

TEST(TwinAllTest, NoFaultsButFullDiffCollection) {
  Fixture f(DetectionMode::kTwinAll);
  f.WriteU64(0, 11);
  f.WriteU64(30000, 22);
  auto snap = CounterSnapshot::From(f.counters);
  EXPECT_EQ(snap.write_faults, 0u);
  UpdateSet out;
  f.strategy->Collect(f.WholeBinding(), 0, 0, &out);
  EXPECT_EQ(out.size(), 2u);
  // Every bound page was diffed, dirty or not — the 3.5 alternative's cost.
  EXPECT_EQ(CounterSnapshot::From(f.counters).pages_diffed, f.region->size() / 4096);
}

TEST(BlastTest, CollectShipsEverythingAlways) {
  Fixture f(DetectionMode::kBlast);
  UpdateSet out;
  f.strategy->Collect(f.WholeBinding(), 0, 5, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].length, f.region->size());
  auto snap = CounterSnapshot::From(f.counters);
  EXPECT_EQ(snap.write_faults, 0u);
  EXPECT_EQ(snap.pages_diffed, 0u);
  EXPECT_EQ(snap.dirtybits_set, 0u);
}

// --- RT summary bitmap (the two-level scheme) ------------------------------------------------

// kRt's summary bitmap is the two-level scheme: one summary bit covers 64 lines, and a clear
// summary word skips its 64 slot loads.
TEST(TwoLevelTest, CleanCoverBlocksSkipScans) {
  SystemConfig config;
  config.mode = DetectionMode::kRt;
  RegionTable regions;
  Counters counters;
  auto strategy = MakeStrategy(config, &regions, &counters);
  Region* region = regions.Create(1 << 16, 8, true);  // 8192 lines, 128 summary words
  strategy->AttachRegion(region);
  strategy->OnBeginParallel();

  strategy->NoteWrite(region->header(), 0, 8);  // dirty word 0 only
  Binding b;
  b.ranges = {GlobalRange{{region->id(), 0}, 1 << 16}};
  UpdateSet out;
  strategy->Collect(b, 0, 7, &out);
  ASSERT_EQ(out.size(), 1u);
  auto snap = CounterSnapshot::From(counters);
  EXPECT_EQ(snap.summary_word_skips, 127u);
  // Skipped lines still count as clean reads, so the totals are the paper's flat scan:
  // one dirty line and every other line of the region clean.
  EXPECT_EQ(snap.dirty_dirtybits_read, 1u);
  EXPECT_EQ(snap.clean_dirtybits_read, 8191u);
}

// --- Cross-strategy property: random write patterns propagate exactly -----------------------

class PropagationFuzzTest
    : public ::testing::TestWithParam<std::tuple<DetectionMode, uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, PropagationFuzzTest,
    ::testing::Combine(::testing::Values(DetectionMode::kRt, DetectionMode::kVmSoft,
                                         DetectionMode::kVmSigsegv, DetectionMode::kTwinAll,
                                         DetectionMode::kRtQueue, DetectionMode::kRtHybrid),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<DetectionMode, uint64_t>>& info) {
      std::string name = DetectionModeName(std::get<0>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

TEST_P(PropagationFuzzTest, CollectedUpdatesReproduceWriterState) {
  const DetectionMode mode = std::get<0>(GetParam());
  SplitMix64 rng(std::get<1>(GetParam()) * 31);
  Fixture writer(mode);
  Fixture reader(mode);
  // Random writes...
  for (int i = 0; i < 300; ++i) {
    uint32_t offset = static_cast<uint32_t>(rng.NextBounded(writer.region->size() - 8)) & ~7u;
    writer.WriteU64(offset, rng.Next());
  }
  // ...collected and applied must make the reader's copy identical.
  UpdateSet updates;
  writer.strategy->Collect(writer.WholeBinding(), 0, 1000, &updates);
  for (const UpdateEntry& e : updates) {
    reader.strategy->ApplyEntry(e);
  }
  EXPECT_EQ(std::memcmp(reader.region->data(), writer.region->data(), writer.region->size()),
            0);
}

}  // namespace
}  // namespace midway
