// Protocol robustness under randomized message delivery timing. The jitter transport delays
// every packet by a random amount (preserving only per-pair FIFO, the property the protocol
// actually requires); the full application suite and the contended-lock stress must still be
// correct under many seeds.
#include <gtest/gtest.h>

#include <ostream>

#include "src/apps/apps.h"
#include "src/net/jitter_transport.h"

namespace midway {
namespace {

TEST(JitterTransportTest, PreservesPerPairFifo) {
  JitterTransport transport(2, /*seed=*/7, /*max_delay_us=*/200);
  constexpr int kCount = 300;
  for (int i = 0; i < kCount; ++i) {
    std::vector<std::byte> p(2);
    p[0] = static_cast<std::byte>(i & 0xFF);
    p[1] = static_cast<std::byte>((i >> 8) & 0xFF);
    transport.Send(0, 1, std::move(p));
  }
  for (int i = 0; i < kCount; ++i) {
    Packet p;
    ASSERT_TRUE(transport.Recv(1, &p));
    int got = static_cast<int>(p.payload[0]) | (static_cast<int>(p.payload[1]) << 8);
    EXPECT_EQ(got, i);  // strictly in order despite random delays
  }
}

TEST(JitterTransportTest, InterleavesAcrossPairs) {
  // Two senders to one receiver: arrival order across pairs should (almost certainly) not
  // equal global send order with 200us of jitter.
  JitterTransport transport(3, /*seed=*/99, /*max_delay_us=*/200);
  constexpr int kPer = 100;
  for (int i = 0; i < kPer; ++i) {
    transport.Send(0, 2, {std::byte{0}});
    transport.Send(1, 2, {std::byte{1}});
  }
  int flips = 0;
  std::byte prev = std::byte{0};
  for (int i = 0; i < 2 * kPer; ++i) {
    Packet p;
    ASSERT_TRUE(transport.Recv(2, &p));
    if (i > 0 && p.payload[0] != prev) ++flips;
    prev = p.payload[0];
  }
  // Perfect alternation would give 199 flips; perfectly sorted would give 1. Jitter should
  // land somewhere strictly between.
  EXPECT_GT(flips, 5);
}

struct JitterCase {
  const char* app;
  DetectionMode mode;
  uint64_t seed;
};

// Printed by value: gtest's default byte dump would put the app pointer and padding bytes into
// the test's listed name, which then changes from build to build.
void PrintTo(const JitterCase& c, std::ostream* os) {
  *os << c.app << " " << DetectionModeName(c.mode) << " seed " << c.seed;
}

class JitterAppTest : public ::testing::TestWithParam<JitterCase> {};

INSTANTIATE_TEST_SUITE_P(
    Apps, JitterAppTest,
    ::testing::ValuesIn([] {
      std::vector<JitterCase> cases;
      for (uint64_t seed : {1u, 2u, 3u}) {
        cases.push_back({"quicksort", DetectionMode::kRt, seed});
        cases.push_back({"quicksort", DetectionMode::kVmSoft, seed});
        cases.push_back({"cholesky", DetectionMode::kRt, seed});
        cases.push_back({"sor", DetectionMode::kVmSoft, seed});
        cases.push_back({"water", DetectionMode::kRt, seed});
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<JitterCase>& info) {
      std::string name = std::string(info.param.app) + "_" +
                         DetectionModeName(info.param.mode) + "_s" +
                         std::to_string(info.param.seed);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST_P(JitterAppTest, VerifiesUnderRandomDelays) {
  SystemConfig config;
  config.mode = GetParam().mode;
  config.num_procs = 4;
  config.transport = TransportKind::kJitter;
  config.jitter_seed = GetParam().seed;
  config.jitter_max_delay_us = 300;
  AppReport report = RunAppByName(GetParam().app, config, /*full_scale=*/false);
  EXPECT_TRUE(report.verified)
      << GetParam().app << " with jitter seed " << GetParam().seed;
}

TEST(JitterStressTest, ContendedCounterUnderJitter) {
  for (uint64_t seed : {10u, 20u, 30u, 40u}) {
    SystemConfig config;
    config.num_procs = 5;
    config.transport = TransportKind::kJitter;
    config.jitter_seed = seed;
    config.jitter_max_delay_us = 150;
    int observed = -1;
    System system(config);
    system.Run([&](Runtime& rt) {
      auto counter = MakeSharedArray<int64_t>(rt, 1);
      LockId lock = rt.CreateLock();
      rt.Bind(lock, {counter.WholeRange()});
      BarrierId done = rt.CreateBarrier();
      counter.raw_mutable()[0] = 0;
      rt.BeginParallel();
      for (int i = 0; i < 15; ++i) {
        rt.Acquire(lock, i % 3 == 2 ? LockMode::kShared : LockMode::kExclusive);
        if (i % 3 != 2) {
          counter[0] = counter.Get(0) + 1;
        }
        rt.Release(lock);
      }
      rt.BarrierWait(done);
      if (rt.self() == 0) {
        rt.Acquire(lock);
        observed = static_cast<int>(counter.Get(0));
        rt.Release(lock);
      }
      rt.BarrierWait(done);
    });
    EXPECT_EQ(observed, 5 * 10) << "seed " << seed;
  }
}

}  // namespace
}  // namespace midway
