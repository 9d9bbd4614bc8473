// isobar_perfbench: one workload run of the ISOBAR benchmark.
//
//   isobar_perfbench --workload checkpoint|insitu|serve --seed N
//                    --seconds S --trace 0|1 [--work-dir DIR]
//                    [--inject-fault]
//
// Prints one info line (host, run shape) and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones (perfbench/run.py adds setup_s); with
// --trace 1 the run is followed by the layer replay and the metrics are
// the per-layer ones, while the run's end-to-end figures go on the info
// line. Exits 1 when any operation failed, 2 on bad usage.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench.h"
#include "simd/dispatch.h"

namespace perfbench {
namespace {

constexpr const char* kHookVariables[] = {"ISOBAR_FORCE_CODEC",
                                          "ISOBAR_TEST_THREADS", "ISOBAR_SIMD"};

int Usage() {
  std::fprintf(stderr,
               "usage: isobar_perfbench --workload checkpoint|insitu|serve "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--inject-fault]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-fault") {
      args->inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

void PrintMetrics(const Metrics& metrics) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}");
}

// The end-to-end metrics of a run, setup_s aside.
Metrics EndToEnd(
    const RunResult& run, double peak_rss_mb) {
  std::vector<double> latency_ms;
  for (const Op& op : run.ops) {
    latency_ms.push_back(static_cast<double>(op.end_ns - op.start_ns) / 1e6);
  }
  return {
      {"compress_MBps", {RoundMedianMBps(run.ops, OpKind::kCompress), "MB/s"}},
      {"decompress_MBps",
       {RoundMedianMBps(run.ops, OpKind::kDecompress), "MB/s"}},
      {"op_p50_ms", {Percentile(latency_ms, 0.50), "ms"}},
      {"op_p99_ms", {Percentile(latency_ms, 0.99), "ms"}},
      {"ratio",
       {run.container_bytes == 0
            ? 0.0
            : static_cast<double>(run.container_input_bytes) /
                  static_cast<double>(run.container_bytes),
        "x"}},
      {"peak_rss_MB", {peak_rss_mb, "MB"}},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  // Each of these hooks changes which code runs; perfbench/run.py clears
  // them, and a run that still sees one measures something else.
  for (const char* name : kHookVariables) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "perfbench: unset %s before running\n", name);
      return 2;
    }
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "checkpoint") {
    workload = MakeCheckpoint();
  } else if (args.workload == "insitu") {
    workload = MakeInsitu();
  } else if (args.workload == "serve") {
    workload = MakeServe();
  } else {
    return Usage();
  }

  // An injected fault lands in the run of a plain run and in the layer
  // replay of a traced one, so each set of checks can be shown to fail.
  Args run_args = args;
  run_args.inject_fault = args.inject_fault && !args.trace;
  RunResult run = workload->Run(run_args);
  const double peak_rss_mb = PeakRssMB();
  const auto end_to_end = EndToEnd(run, peak_rss_mb);

  Metrics layers;
  if (args.trace && run.failed == 0) {
    ReplayLayers(args, workload->Inputs(), &layers, &run);
  }

  const size_t ops = run.ops.size();
  std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"seconds\": %g, \"cores\": %u, \"simd_tier\": \"%s\", "
              "\"rounds\": %" PRIu64 ", \"ops\": %zu, "
              "\"p99_samples_beyond\": %zu, \"setup_end_monotonic_s\": %.9f",
              args.workload.c_str(), args.seed, args.seconds,
              std::thread::hardware_concurrency(),
              std::string(isobar::simd::TierToString(isobar::simd::ActiveTier()))
                  .c_str(),
              run.rounds, ops, ops - (ops * 99 + 99) / 100,
              static_cast<double>(run.setup_end_ns) / 1e9);
  for (const auto& [name, value] : run.info) {
    std::printf(", \"%s\": %.17g", name.c_str(), value);
  }
  if (args.trace) {
    std::printf(", \"traced_end_to_end\": ");
    PrintMetrics(end_to_end);
  }
  std::printf("}}\n");
  for (const std::string& failure : run.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
  }

  const Metrics& metrics = args.trace ? layers : end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": ",
              run.failed == 0 ? "true" : "false", run.attempted, run.failed);
  PrintMetrics(metrics);
  std::printf("}\n");
  std::fflush(stdout);
  return run.failed == 0 && run.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
