// Shared types of the ISOBAR benchmark driver (see README.md).
//
// A workload function runs whole rounds of a fixed operation sequence until
// the run length has elapsed, timing each library call as one operation and
// checking every output it gets back. It also hands the inputs it used to
// the layer replay (layers.cc), which the traced run times layer by layer.
#ifndef ISOBAR_PERFBENCH_PERFBENCH_H_
#define ISOBAR_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/isobar.h"
#include "datagen/registry.h"
#include "util/bytes.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Corrupts one output before it is checked, so the self-test can assert
  // that the checks catch it: one output of the first round in a plain
  // run, the first re-encoded chunk record in a traced run.
  bool inject_fault = false;
  // Directory for the server socket and the span dump (inside the checkout).
  std::string work_dir = ".";
};

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class OpKind : uint8_t { kCompress, kDecompress };

/// One timed library call (or one request, for serve): a span of the
/// benchmark's own, recorded around the call into the program.
struct Op {
  OpKind kind = OpKind::kCompress;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;  ///< Uncompressed bytes in (compress) or out (decompress).
  uint64_t round = 0;  ///< Round of the workload's operation sequence.
};

/// What one workload run did. Checks append to `failures`; every failed
/// call or failed output check counts one failed operation.
struct RunResult {
  std::vector<Op> ops;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rounds = 0;
  /// Ratio accounting over every container the run produced.
  uint64_t container_input_bytes = 0;
  uint64_t container_bytes = 0;
  int64_t setup_end_ns = 0;
  std::vector<std::string> failures;
  /// Workload-specific facts printed on the info line.
  std::map<std::string, double> info;

  void Fail(const std::string& what);
};

/// One element array the workload compresses.
struct Item {
  isobar::ByteSpan data;
  size_t width = 8;
};

/// One container the workload produced, with the bytes it must decode to.
struct ContainerRef {
  isobar::ByteSpan bytes;
  isobar::ByteSpan original;
  size_t width = 8;
};

struct RangeRead {
  size_t container = 0;
  uint64_t first = 0;
  uint64_t end = 0;
};

struct ColumnRead {
  size_t container = 0;
  uint64_t mask = 0;
};

/// The workload's inputs as the layer replay sees them. Spans point into
/// storage the workload keeps alive until the replay has finished.
struct LayerInputs {
  std::vector<Item> items;
  isobar::CompressOptions options;
  std::vector<ContainerRef> containers;
  std::vector<RangeRead> ranges;
  std::vector<ColumnRead> columns;
  /// Decode threads of each range and column read.
  uint32_t read_threads = 4;
  /// serve only: p50 request latency of the run and the server's STATS
  /// JSON taken after it. Empty for the other workloads, whose replay
  /// serves their own items through a fresh in-process server.
  double serve_p50_ms = 0.0;
  std::string serve_stats_json;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics by name, as printed on the result line.
using Metrics = std::map<std::string, Metric>;

/// A workload keeps its generated data here; the layer replay reads it
/// through LayerInputs after the run.
struct Workload {
  virtual ~Workload() = default;
  virtual RunResult Run(const Args& args) = 0;
  virtual LayerInputs Inputs() const = 0;
};

std::unique_ptr<Workload> MakeCheckpoint();
std::unique_ptr<Workload> MakeInsitu();
std::unique_ptr<Workload> MakeServe();

/// Times every layer's public function on `inputs`; adds the figures to
/// `*out` and any check failure to `*result`.
void ReplayLayers(const Args& args, const LayerInputs& inputs,
                  Metrics* out, RunResult* result);

// ---- helpers shared by the workloads (common.cc) ----

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// --seed so the same seed gives the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

uint64_t MixSeed(uint64_t a, uint64_t b);

/// A non-empty column mask over `width` columns.
uint64_t RandomMask(Rng* rng, size_t width);

/// A copy of the named datagen profile whose generator seed is mixed with
/// the benchmark seed.
isobar::DatasetSpec SeededSpec(std::string_view name, uint64_t seed);

/// Byte planes of the columns in `mask`, ascending, extracted by a plain
/// loop: the reference for DecompressColumns.
isobar::Bytes PlainColumns(isobar::ByteSpan data, size_t width, uint64_t mask);

/// Chunk count the footer must carry: ceil(elements / chunk_elements).
uint64_t ExpectedChunks(uint64_t elements, uint64_t chunk_elements);

/// Checks the footer of a v2 container against the benchmark's own chunk
/// count; returns an empty string when it matches.
std::string CheckChunkCount(isobar::ByteSpan container, uint64_t elements,
                            uint64_t chunk_elements);

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

/// Bytes of the ops of `kind` divided by the seconds during which at least
/// one of them was in flight, MB/s, taken per round; the median over the
/// rounds, so that a short stall of the host moves one round, not the run.
double RoundMedianMBps(const std::vector<Op>& ops, OpKind kind);

/// Peak resident set of this process, MB (1e6 bytes).
double PeakRssMB();

}  // namespace perfbench

#endif  // ISOBAR_PERFBENCH_PERFBENCH_H_
