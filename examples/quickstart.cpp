// Quickstart: the smallest complete Midway program.
//
// Four DSM "processors" (no physically shared memory — each has a private copy of every
// region, kept consistent by the entry-consistency protocol) increment a shared counter
// under an exclusive lock and fill a shared array partitioned by a barrier.
//
//   ./quickstart [--procs=4] [--mode=rt|vmsoft|vmsig|blast|twinall] [--transport=tcp]
#include <cstdio>
#include <string>

#include "src/common/options.h"
#include "src/core/midway.h"

namespace {

midway::DetectionMode ParseMode(const std::string& name) {
  if (name == "vmsoft") return midway::DetectionMode::kVmSoft;
  if (name == "vmsig") return midway::DetectionMode::kVmSigsegv;
  if (name == "blast") return midway::DetectionMode::kBlast;
  if (name == "twinall") return midway::DetectionMode::kTwinAll;
  return midway::DetectionMode::kRt;
}

}  // namespace

int main(int argc, char** argv) {
  midway::Options options(argc, argv);
  midway::SystemConfig config;
  config.num_procs = static_cast<uint16_t>(options.GetInt("procs", 4));
  config.mode = ParseMode(options.GetString("mode", "rt"));
  config.transport = options.GetString("transport", "inproc") == "tcp"
                         ? midway::TransportKind::kTcp
                         : midway::TransportKind::kInProc;
  config.ec_check = options.GetBool("ec-check", false);
  config.ec_report_path = options.GetString("ec-report", "");
  config.trace_path = options.GetString("trace-out", "");      // chrome://tracing dump
  config.metrics_path = options.GetString("metrics-out", "");  // metrics dump (.json/.prom)

  std::printf("quickstart: %u processors, %s write detection\n", config.num_procs,
              midway::DetectionModeName(config.mode));

  midway::System system(config);
  system.Run([](midway::Runtime& rt) {
    // --- Setup (SPMD: every processor executes the same calls, in the same order) --------
    auto counter = midway::MakeSharedArray<int64_t>(rt, 1);
    auto table = midway::MakeSharedArray<int32_t>(rt, 64);
    midway::LockId lock = rt.CreateLock();
    rt.Bind(lock, {counter.WholeRange()});
    midway::BarrierId done = rt.CreateBarrier();
    // Bind the slice of `table` this processor will write.
    const size_t per = table.size() / rt.nprocs();
    rt.BindBarrier(done, {table.Range(rt.self() * per, per)});

    // init-phase: identical untracked initialization everywhere, before BeginParallel
    counter.raw_mutable()[0] = 0;
    for (size_t i = 0; i < table.size(); ++i) table.raw_mutable()[i] = 0;

    rt.BeginParallel();

    // --- Lock-protected updates ------------------------------------------------------------
    for (int i = 0; i < 10; ++i) {
      rt.Acquire(lock);                     // brings the freshest counter value here
      counter[0] = counter.Get(0) + 1;      // instrumented store (operator overloading)
      rt.Release(lock);                     // lazy: the lock stays until someone asks
    }

    // --- Partitioned writes + barrier ------------------------------------------------------
    for (size_t i = rt.self() * per; i < (rt.self() + 1u) * per; ++i) {
      table[i] = static_cast<int32_t>(i * i);
    }
    rt.BarrierWait(done);  // everyone's slice is now visible everywhere

    if (rt.self() == 0) {
      rt.Acquire(lock);
      std::printf("counter = %ld (expected %d)\n", static_cast<long>(counter.Get(0)),
                  10 * rt.nprocs());
      rt.Release(lock);
      long sum = 0;
      for (size_t i = 0; i < table.size(); ++i) sum += table.Get(i);
      std::printf("sum of table[i]=i^2 over %zu entries = %ld\n", table.size(), sum);
    }
    rt.BarrierWait(done);
  });

  auto totals = system.Total();
  std::printf("dirtybits set: %llu, write faults: %llu, data transferred: %llu bytes\n",
              static_cast<unsigned long long>(totals.dirtybits_set),
              static_cast<unsigned long long>(totals.write_faults),
              static_cast<unsigned long long>(totals.data_bytes_sent));
  const uint64_t ec_findings = system.EcReport().total();
  if (ec_findings != 0) {
    std::fprintf(stderr, "quickstart: %llu entry-consistency violations\n",
                 static_cast<unsigned long long>(ec_findings));
    return 1;
  }
  return 0;
}
