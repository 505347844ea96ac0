// Configuration sweeps: every tunable that changes protocol behaviour is exercised against
// application-level correctness — VM coherency page sizes (including partial last pages),
// update-log windows down to 1, update-queue limits that force overflow, and line sizes.
// Each case must still verify against the sequential reference.
#include <gtest/gtest.h>

#include "src/apps/apps.h"

namespace midway {
namespace {

// --- VM page size sweep ----------------------------------------------------------------------

class PageSizeSweepTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Pages, PageSizeSweepTest,
                         ::testing::Values(256u, 1024u, 4096u, 16384u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "page" + std::to_string(info.param);
                         });

TEST_P(PageSizeSweepTest, SorVerifiesUnderVmSoft) {
  SystemConfig config;
  config.mode = DetectionMode::kVmSoft;
  config.num_procs = 4;
  config.page_size = GetParam();
  SorParams params;
  params.n = 64;
  params.iterations = 4;
  AppReport report = RunSor(config, params);
  EXPECT_TRUE(report.verified) << "page size " << GetParam();
  EXPECT_GT(report.total.write_faults, 0u);
}

TEST_P(PageSizeSweepTest, QuicksortVerifiesUnderVmSoft) {
  SystemConfig config;
  config.mode = DetectionMode::kVmSoft;
  config.num_procs = 3;
  config.page_size = GetParam();
  QuicksortParams params;
  params.elements = 6000;
  params.threshold = 256;
  AppReport report = RunQuicksort(config, params);
  EXPECT_TRUE(report.verified) << "page size " << GetParam();
}

TEST(PageSizeTest, LargerPagesMeanFewerFaultsMoreAmplifiedDiffs) {
  auto run = [](uint32_t page_size) {
    SystemConfig config;
    config.mode = DetectionMode::kVmSoft;
    config.num_procs = 4;
    config.page_size = page_size;
    SorParams params;
    params.n = 96;
    params.iterations = 4;
    return RunSor(config, params);
  };
  AppReport small = run(512);
  AppReport big = run(8192);
  ASSERT_TRUE(small.verified);
  ASSERT_TRUE(big.verified);
  EXPECT_GT(small.total.write_faults, big.total.write_faults);
}

// --- Update log window sweep -------------------------------------------------------------------

class LogWindowSweepTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Windows, LogWindowSweepTest, ::testing::Values(1u, 2u, 4u, 16u, 256u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "window" + std::to_string(info.param);
                         });

TEST_P(LogWindowSweepTest, CholeskyVerifiesUnderAnyWindow) {
  SystemConfig config;
  config.mode = DetectionMode::kVmSoft;
  config.num_procs = 4;
  config.max_update_log = GetParam();
  CholeskyParams params;
  params.grid = 10;
  AppReport report = RunCholesky(config, params);
  EXPECT_TRUE(report.verified) << "window " << GetParam();
}

TEST_P(LogWindowSweepTest, QuicksortVerifiesUnderAnyWindow) {
  SystemConfig config;
  config.mode = DetectionMode::kVmSoft;
  config.num_procs = 4;
  config.max_update_log = GetParam();
  QuicksortParams params;
  params.elements = 6000;
  params.threshold = 256;
  AppReport report = RunQuicksort(config, params);
  EXPECT_TRUE(report.verified) << "window " << GetParam();
}

TEST(LogWindowTest, SmallerWindowsCauseMoreFullSends) {
  auto run = [](uint32_t window) {
    SystemConfig config;
    config.mode = DetectionMode::kVmSoft;
    config.num_procs = 6;
    config.max_update_log = window;
    CholeskyParams params;
    params.grid = 10;
    return RunCholesky(config, params);
  };
  AppReport tiny = run(1);
  AppReport wide = run(256);
  ASSERT_TRUE(tiny.verified);
  ASSERT_TRUE(wide.verified);
  EXPECT_GE(tiny.total.full_data_sends, wide.total.full_data_sends);
  EXPECT_GE(tiny.total.data_bytes_sent, wide.total.data_bytes_sent);
}

// --- Update queue limit sweep -------------------------------------------------------------------

class QueueLimitSweepTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Limits, QueueLimitSweepTest, ::testing::Values(1u, 4u, 64u, 4096u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "limit" + std::to_string(info.param);
                         });

TEST_P(QueueLimitSweepTest, SorVerifiesEvenWhenQueuesOverflow) {
  SystemConfig config;
  config.mode = DetectionMode::kRtQueue;
  config.num_procs = 4;
  config.update_queue_limit = GetParam();
  SorParams params;
  params.n = 64;
  params.iterations = 4;
  AppReport report = RunSor(config, params);
  EXPECT_TRUE(report.verified) << "queue limit " << GetParam();
  if (GetParam() <= 4) {
    EXPECT_GT(report.total.queue_overflows, 0u);  // the fallback path really ran
  }
}

TEST_P(QueueLimitSweepTest, CholeskyVerifiesEvenWhenQueuesOverflow) {
  SystemConfig config;
  config.mode = DetectionMode::kRtQueue;
  config.num_procs = 3;
  config.update_queue_limit = GetParam();
  CholeskyParams params;
  params.grid = 10;
  AppReport report = RunCholesky(config, params);
  EXPECT_TRUE(report.verified) << "queue limit " << GetParam();
}

// --- Default line size sweep --------------------------------------------------------------------

class LineSizeSweepTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Lines, LineSizeSweepTest, ::testing::Values(4u, 16u, 128u, 1024u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "line" + std::to_string(info.param);
                         });

// Lock-protected data is quiesced at transfer, so any line size is correct when a single
// lock owns the whole array (no cross-processor line sharing).
TEST_P(LineSizeSweepTest, LockProtectedDataToleratesAnyLineSize) {
  SystemConfig config;
  config.mode = DetectionMode::kRt;
  config.num_procs = 4;
  config.default_line_size = GetParam();
  int observed = -1;
  System system(config);
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 512);  // default line size from config
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    for (int i = 0; i < 512; ++i) data.raw_mutable()[i] = 0;
    rt.BeginParallel();
    for (int i = 0; i < 8; ++i) {
      rt.Acquire(lock);
      data[1 + (rt.self() * 8 + i) % 511] = rt.self() + 1;
      data[0] = data.Get(0) + 1;
      rt.Release(lock);
    }
    rt.BarrierWait(done);
    if (rt.self() == 0) {
      rt.Acquire(lock);
      observed = static_cast<int>(data.Get(0));
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(observed, 4 * 8) << "line size " << GetParam();
}

}  // namespace
}  // namespace midway
