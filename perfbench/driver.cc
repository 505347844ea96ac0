// Paper-app benchmark driver.
//
// Runs one workload — a fixed list of the paper's applications at paper scale under one
// detection mode and one transport, on 4 DSM processors — in passes until --seconds have
// elapsed, and prints one JSON line per pass with what each app run reports: wall and
// parallel-phase time, the verification verdict, every counter, the wire totals and, on
// traced passes, the span histograms; plus the process's peak RSS so far. A last line
// carries the driver's own spans (one per pass, one per app run). The driver computes no
// metric; run.py builds it, runs it and aggregates its lines.
//
//   perfbench_driver --workload=rt-locks --seed=7 --seconds=10 --trace=1
//
// Each pass draws its app seed from a SplitMix64 stream seeded with --seed, so a run's
// medians average over as many inputs as it has passes, and one --seed always gives the
// same inputs. With --trace=1, passes alternate untraced and traced (SystemConfig::spans),
// so one run gives both the per-layer numbers and the tracing overhead against untraced
// passes.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/common/options.h"
#include "src/common/rng.h"

namespace midway {
namespace perfbench {
namespace {

constexpr uint16_t kProcs = 4;

struct Workload {
  std::string name;
  DetectionMode mode;
  TransportKind transport;
  std::vector<std::string> apps;
};

// Why each workload exists is recorded in README.md; the list here must match
// BENCHMARK.json and the fingerprint table in metrics.py.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"rt-locks", DetectionMode::kRt, TransportKind::kInProc, {"cholesky", "quicksort"}},
      {"rt-locks-tcp", DetectionMode::kRt, TransportKind::kTcp, {"cholesky", "quicksort"}},
      {"rt-barriers", DetectionMode::kRt, TransportKind::kInProc, {"matmul", "sor", "water"}},
      {"vm-sigsegv", DetectionMode::kVmSigsegv, TransportKind::kInProc,
       {"water", "quicksort", "matmul", "sor", "cholesky"}},
  };
  return workloads;
}

// Paper-scale parameters with the workload seed in place of the default one.
AppReport RunApp(const std::string& app, const SystemConfig& config, uint64_t seed) {
  if (app == "water") {
    WaterParams p = WaterParams::PaperScale();
    p.seed = seed;
    return RunWater(config, p);
  }
  if (app == "quicksort") {
    QuicksortParams p = QuicksortParams::PaperScale();
    p.seed = seed;
    return RunQuicksort(config, p);
  }
  if (app == "matmul") {
    MatmulParams p = MatmulParams::PaperScale();
    p.seed = seed;
    return RunMatmul(config, p);
  }
  if (app == "sor") {
    SorParams p = SorParams::PaperScale();
    p.seed = seed;
    return RunSor(config, p);
  }
  CholeskyParams p = CholeskyParams::PaperScale();
  p.seed = seed;
  return RunCholesky(config, p);
}

// The driver's own spans, kept in memory and printed once at exit.
struct BenchSpan {
  std::string name;
  int parent;  // index of the enclosing span, -1 for a pass
  uint64_t start_ns;
  uint64_t end_ns;
};

class SpanLog {
 public:
  int Begin(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, obs::Span::NowNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Ends span `id` and returns its duration in seconds.
  double End(int id) {
    BenchSpan& span = spans_[static_cast<size_t>(id)];
    span.end_ns = obs::Span::NowNs();
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  std::vector<BenchSpan> spans_;
};

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Num(uint64_t v) { return std::to_string(v); }

void AppendKey(std::string* out, const char* key) {
  *out += '"';
  *out += key;
  *out += "\":";
}

std::string HistogramJson(const obs::HistogramSnapshot& h) {
  std::string out = "{\"count\":" + Num(h.count) + ",\"sum_ns\":" + Num(h.sum_ns) +
                    ",\"max_ns\":" + Num(h.max_ns) + ",\"buckets\":[";
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    if (i > 0) out += ',';
    out += Num(h.buckets[i]);
  }
  return out + "]}";
}

std::string AppJson(const std::string& app, double wall_s, const AppReport& r) {
  std::string out = "{\"app\":\"" + app + "\",\"wall_s\":" + Num(wall_s) +
                    ",\"par_s\":" + Num(r.elapsed_sec) +
                    ",\"verified\":" + (r.verified ? "true" : "false") +
                    ",\"wire_bytes\":" + Num(r.wire_bytes) +
                    ",\"wire_packets\":" + Num(r.wire_packets) +
                    ",\"recv_bytes_copied\":" + Num(r.recv_bytes_copied) + ",\"counters\":{";
  bool first = true;
  r.total.ForEach([&](const char* name, uint64_t value, const char*) {
    if (!first) out += ',';
    AppendKey(&out, name);
    out += Num(value);
    first = false;
  });
  out += "},\"spans\":{";
  first = true;
  for (size_t k = 0; k < obs::kNumSpanKinds; ++k) {
    if (r.spans[k].count == 0) continue;
    if (!first) out += ',';
    AppendKey(&out, obs::SpanKindName(static_cast<obs::SpanKind>(k)));
    out += HistogramJson(r.spans[k]);
    first = false;
  }
  return out + "}}";
}

uint64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

std::string SummaryJson(const SpanLog& log) {
  std::string out = "{\"summary\":true,\"spans\":[";
  bool first = true;
  for (const BenchSpan& s : log.spans()) {
    if (!first) out += ',';
    out += "{\"name\":\"" + s.name +
           "\",\"parent\":" + std::to_string(s.parent) + ",\"start_ns\":" + Num(s.start_ns) +
           ",\"end_ns\":" + Num(s.end_ns) + "}";
    first = false;
  }
  return out + "]}";
}

int Main(int argc, char** argv) {
  Options options(argc, argv);
  const std::string name = options.GetString("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (w.name == name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const auto seed = static_cast<uint64_t>(options.GetInt("seed", 1));
  const double seconds = options.GetDouble("seconds", 10);
  const bool trace = options.GetInt("trace", 0) != 0;
  // vm-sigsegv passes take several seconds, so the floor, not --seconds, sets how many
  // passes its medians rest on. A traced run needs untraced and traced passes to compare.
  const int64_t min_passes = options.GetInt("min-passes", trace ? 4 : 5);

  SpanLog log;
  SplitMix64 pass_seeds(seed);
  const uint64_t start_ns = obs::Span::NowNs();
  for (int64_t pass = 0;
       pass < min_passes ||
       static_cast<double>(obs::Span::NowNs() - start_ns) * 1e-9 < seconds;
       ++pass) {
    const bool traced = trace && pass % 2 == 1;
    SystemConfig config;
    config.num_procs = kProcs;
    config.mode = workload->mode;
    config.transport = workload->transport;
    config.spans = traced;
    const uint64_t pass_seed = pass_seeds.Next();

    const int pass_span = log.Begin("pass", -1);
    std::string apps;
    for (const std::string& app : workload->apps) {
      const int app_span = log.Begin("run." + app, pass_span);
      const AppReport report = RunApp(app, config, pass_seed);
      const double wall_s = log.End(app_span);
      if (!apps.empty()) apps += ',';
      apps += AppJson(app, wall_s, report);
    }
    const double pass_wall_s = log.End(pass_span);
    std::printf("{\"pass\":%" PRId64 ",\"seed\":%" PRIu64
                ",\"traced\":%s,\"wall_s\":%s,\"peak_rss_kb\":%" PRIu64 ",\"apps\":[%s]}\n",
                pass, pass_seed, traced ? "true" : "false", Num(pass_wall_s).c_str(),
                PeakRssKb(), apps.c_str());
    std::fflush(stdout);
  }
  std::printf("%s\n", SummaryJson(log).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace midway

int main(int argc, char** argv) { return midway::perfbench::Main(argc, argv); }
