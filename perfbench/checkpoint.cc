// checkpoint: write, then read back, a 24-variable checkpoint.
//
// One variable of about 4 MB per datagen profile (float32, float64 and
// int64; improvable and not). Each round compresses all 24 with 4 pipeline
// threads, then decompresses all 24. The solver is pinned to lzans under
// the ratio preference: EUPA still picks the linearization, by ratio, but
// not the codec, which the speed preference would pick from wall-clock
// trial timings and so change from run to run.
#include <cstring>

#include "perfbench.h"

namespace perfbench {
namespace {

using isobar::Bytes;
using isobar::ByteSpan;

constexpr double kVariableMB = 4.0;
// 32768 elements per chunk gives every variable at least 16 chunks, twice
// as many per thread as the 4 pipeline threads need to stay busy.
constexpr uint64_t kChunkElements = 32768;
constexpr uint32_t kThreads = 4;

class Checkpoint final : public Workload {
 public:
  RunResult Run(const Args& args) override;
  LayerInputs Inputs() const override;

 private:
  isobar::CompressOptions Options(uint32_t threads) const {
    isobar::CompressOptions options;
    options.eupa.preference = isobar::Preference::kRatio;
    options.eupa.forced_codec = isobar::CodecId::kLzans;
    options.chunk_elements = kChunkElements;
    options.num_threads = threads;
    return options;
  }

  uint64_t seed_ = 0;
  std::vector<isobar::Dataset> variables_;
  std::vector<Bytes> reference_;  // 1-thread containers, built in set-up
};

RunResult Checkpoint::Run(const Args& args) {
  RunResult result;
  seed_ = args.seed;
  for (const isobar::DatasetSpec& profile : isobar::AllDatasetSpecs()) {
    const isobar::DatasetSpec spec = SeededSpec(profile.name, args.seed);
    auto variable = isobar::GenerateDatasetMB(spec, kVariableMB);
    if (!variable.ok()) {
      result.Fail("generate " + std::string(spec.name) + ": " +
                  variable.status().ToString());
      return result;
    }
    variables_.push_back(std::move(*variable));
  }
  const isobar::IsobarCompressor serial(Options(1));
  for (const isobar::Dataset& variable : variables_) {
    auto container = serial.Compress(variable.bytes(), variable.width());
    if (!container.ok()) {
      result.Fail("set-up compress " + variable.name + ": " +
                  container.status().ToString());
      return result;
    }
    reference_.push_back(std::move(*container));
  }
  result.setup_end_ns = NowNanos();

  const isobar::IsobarCompressor compressor(Options(kThreads));
  isobar::DecompressOptions decode;
  decode.num_threads = kThreads;
  const int64_t deadline =
      result.setup_end_ns + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<Bytes> written(variables_.size());
  do {
    for (size_t v = 0; v < variables_.size(); ++v) {
      const isobar::Dataset& variable = variables_[v];
      Op op{OpKind::kCompress, NowNanos(), 0, variable.data.size(),
            result.rounds};
      auto container = compressor.Compress(variable.bytes(), variable.width());
      op.end_ns = NowNanos();
      result.ops.push_back(op);
      ++result.attempted;
      if (!container.ok()) {
        result.Fail("compress " + variable.name + ": " +
                    container.status().ToString());
        written[v].clear();
        continue;
      }
      written[v] = std::move(*container);
      result.container_input_bytes += variable.data.size();
      result.container_bytes += written[v].size();
      if (written[v] != reference_[v]) {
        result.Fail("compress " + variable.name +
                    ": 4-thread container differs from the 1-thread one");
        continue;
      }
      const std::string chunks = CheckChunkCount(
          written[v], variable.element_count(), kChunkElements);
      if (!chunks.empty()) result.Fail("compress " + variable.name + ": " + chunks);
    }
    for (size_t v = 0; v < variables_.size(); ++v) {
      const isobar::Dataset& variable = variables_[v];
      Op op{OpKind::kDecompress, NowNanos(), 0, 0, result.rounds};
      auto restored = isobar::IsobarCompressor::Decompress(written[v], decode);
      op.end_ns = NowNanos();
      ++result.attempted;
      if (!restored.ok()) {
        result.ops.push_back(op);
        result.Fail("decompress " + variable.name + ": " +
                    restored.status().ToString());
        continue;
      }
      op.bytes = restored->size();
      result.ops.push_back(op);
      if (args.inject_fault && result.rounds == 0 && v == 0) {
        (*restored)[restored->size() / 2] ^= 0x01;
      }
      if (*restored != variable.data) {
        result.Fail("decompress " + variable.name +
                    ": output differs from the generated variable");
      }
    }
    ++result.rounds;
  } while (NowNanos() < deadline);
  result.info["variables"] = static_cast<double>(variables_.size());
  result.info["chunk_elements"] = static_cast<double>(kChunkElements);
  return result;
}

LayerInputs Checkpoint::Inputs() const {
  LayerInputs inputs;
  inputs.options = Options(kThreads);
  Rng rng(MixSeed(seed_, 0xC4E0));
  for (size_t v = 0; v < variables_.size(); ++v) {
    const isobar::Dataset& variable = variables_[v];
    inputs.items.push_back({variable.bytes(), variable.width()});
    inputs.containers.push_back(
        {ByteSpan(reference_[v]), variable.bytes(), variable.width()});
    // Two windows per variable: one inside a chunk, one across several.
    const uint64_t n = variable.element_count();
    for (uint64_t length : {uint64_t{1000}, 3 * kChunkElements}) {
      const uint64_t first = rng.Below(n - length + 1);
      inputs.ranges.push_back({v, first, first + length});
    }
    inputs.columns.push_back({v, RandomMask(&rng, variable.width())});
  }
  return inputs;
}

}  // namespace

std::unique_ptr<Workload> MakeCheckpoint() {
  return std::make_unique<Checkpoint>();
}

}  // namespace perfbench
