// insitu: a simulation writes time steps while an analysis reads pieces of
// the outputs already finished.
//
// The simulation has 4 ranks, each writing its own output of the same four
// profiles, so 16 streams. The profiles are ones on which the ratio
// preference picks bzip2, zlib and lzans, and picks the same solver and
// linearization whatever the seed, so that the work of a round does not
// depend on the seed: over 200 seeds the winner's sample ratio led the next
// candidate by at least 20% (bzip2 on gts_phi_nl), 3% (zlib on s3d_vmag),
// 8% (lzans on msg_sppm) and 10% (lzans on obs_error). Profiles with closer
// races (gts_chkp_zion, num_comet) switch to another solver on about one
// seed in a hundred, and bzip2 compresses a third as fast as lzans, so one
// such seed moves the run.
//
// Each output is one container of four TimeSeriesGenerator steps, written
// through an IsobarStreamWriter per stream. A round has four steps: every
// stream appends the step (the last step also finishes the container),
// then the analysis makes 12 reads per stream on two finished containers
// of the stream: output 0, written in set-up, and output 1 as the
// previous round (or set-up) wrote it. The reads are DecompressRange
// windows whose lengths step through a log-uniform grid from 4 elements to
// 4 chunks, and every eighth read a DecompressColumns call of one byte
// column, the columns taken in turn, each with one decode thread. Which
// container, window length, covering chunks and column a read gets does
// not depend on the seed, so neither does the mix of raw-plane copies and
// solver decodes; the seed places a window inside its first chunk.
//
// Four I/O threads take the appends of a step, and then its reads, from a
// shared list, longest first, and meet at a barrier between the two. So the
// four cores are busy in every phase, a core that the host slows hands its
// share to the others, and no append is timed beside a read. With one
// writer and one reader instead, most of the run is one busy core, and its
// speed followed the host's single-core clock, which wandered by 15% over
// tens of seconds.
//
// Set-up writes outputs 0 and 1 of every stream; each round writes output
// 1 again, so every round does the same operations.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <memory>
#include <thread>

#include "core/stream.h"
#include "datagen/time_series.h"
#include "io/sink.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using isobar::Bytes;
using isobar::ByteSpan;

// In the order the appends of a step are handed out: slowest solver first.
constexpr std::string_view kProfiles[] = {"gts_phi_nl", "obs_error",
                                          "msg_sppm", "s3d_vmag"};
constexpr size_t kRanks = 4;
constexpr size_t kStreams = kRanks * std::size(kProfiles);
constexpr int kThreads = 4;
constexpr uint64_t kStepElements = 65536;
constexpr uint64_t kStepsPerOutput = 4;
constexpr uint64_t kOutputElements = kStepsPerOutput * kStepElements;
constexpr uint64_t kChunkElements = 32768;
constexpr int kReadsPerStep = 12;
constexpr int kReadsPerRound = kReadsPerStep * kStepsPerOutput;
static_assert(kOutputElements % kChunkElements == 0,
              "WindowFirst assumes whole chunks");

// First element of read `index`'s window of `length` elements in an output
// of `n`. The window covers the fewest chunks it can, or on every third
// read one more, so that it crosses a boundary it need not; it starts in
// chunk index mod (chunks it can start in). Only its offset inside that
// chunk is drawn from `rng`, so the chunks it decodes do not depend on the
// seed.
uint64_t WindowFirst(int index, uint64_t length, uint64_t n, Rng* rng) {
  const uint64_t chunk = kChunkElements;
  const uint64_t chunks = n / chunk;
  // Offsets inside the first chunk at which the window covers `cover`
  // chunks: [lo, hi], empty when lo > hi.
  const auto lo = [&](uint64_t cover) {
    return (cover - 1) * chunk + 1 > length ? (cover - 1) * chunk + 1 - length
                                            : 0;
  };
  const auto hi = [&](uint64_t cover) {
    return std::min(chunk - 1, cover * chunk - length);
  };
  uint64_t cover = ExpectedChunks(length, chunk);
  if (index % 3 == 0 && cover < chunks && lo(cover + 1) <= hi(cover + 1)) {
    ++cover;
  }
  const uint64_t first_chunk = static_cast<uint64_t>(index) %
                               (chunks - cover + 1);
  return first_chunk * chunk + lo(cover) +
         rng->Below(hi(cover) - lo(cover) + 1);
}

struct Stream {
  isobar::DatasetSpec spec;
  size_t width = 8;
  Bytes outputs[2];  // concatenated steps of output 0 and output 1
  Bytes first;       // output 0, written in set-up
  Bytes last;        // output 1 as last written
  Bytes next;        // output 1 being written this round
  std::unique_ptr<isobar::MemorySink> sink;
  std::unique_ptr<isobar::IsobarStreamWriter> writer;
  bool ok = false;   // every write of this round succeeded so far

  const Bytes& container(int output) const {
    return output == 0 ? first : last;
  }
};

struct PlannedRead {
  size_t stream = 0;
  int output = 0;
  uint64_t first = 0;
  uint64_t end = 0;
  uint64_t mask = 0;  // non-zero: a column read
  uint64_t cost = 0;  // bytes returned, to hand out the longest first
};

class Insitu final : public Workload {
 public:
  RunResult Run(const Args& args) override;
  LayerInputs Inputs() const override;

 private:
  static isobar::CompressOptions Options() {
    isobar::CompressOptions options;
    options.eupa.preference = isobar::Preference::kRatio;
    options.chunk_elements = kChunkElements;
    options.num_threads = 1;
    return options;
  }

  // Generates stream `t`'s steps and writes both its outputs.
  bool SetUp(const Args& args, size_t t, RunResult* part);
  // The reads of every step, the same in every round.
  void Plan(uint64_t seed);
  // Step `s` of stream `t`: one append, and after the last step the
  // finish and the footer check.
  void Write(uint64_t s, size_t t, uint64_t round, RunResult* part);
  void Read(const PlannedRead& read, bool corrupt, uint64_t round,
            RunResult* part) const;
  // Makes every fully written output 1 the one the next round reads.
  void EndRound();

  std::vector<Stream> streams_;
  std::vector<PlannedRead> plan_[kStepsPerOutput];
};

bool Insitu::SetUp(const Args& args, size_t t, RunResult* part) {
  Stream& stream = streams_[t];
  const std::string_view name = kProfiles[t / kRanks];
  stream.spec = SeededSpec(name, MixSeed(args.seed, t % kRanks));
  const isobar::TimeSeriesGenerator generator(stream.spec, kStepElements);
  for (uint64_t step = 0; step < 2 * kStepsPerOutput; ++step) {
    auto dataset = generator.Step(step);
    if (!dataset.ok()) {
      part->Fail("generate " + std::string(name) + ": " +
                 dataset.status().ToString());
      return false;
    }
    stream.width = dataset->width();
    Bytes& output = stream.outputs[step / kStepsPerOutput];
    output.insert(output.end(), dataset->data.begin(), dataset->data.end());
  }
  for (int o = 0; o < 2; ++o) {
    Bytes& container = o == 0 ? stream.first : stream.last;
    isobar::MemorySink sink(&container);
    isobar::IsobarStreamWriter writer(Options(), stream.width, &sink);
    isobar::Status status = writer.Append(stream.outputs[o]);
    if (status.ok()) status = writer.Finish();
    const std::string chunks =
        status.ok() ? CheckChunkCount(container, kOutputElements,
                                      kChunkElements)
                    : status.ToString();
    if (!chunks.empty()) {
      part->Fail("set-up write of " + std::string(name) + ": " + chunks);
      return false;
    }
  }
  return true;
}

void Insitu::Plan(uint64_t seed) {
  for (size_t t = 0; t < kStreams; ++t) {
    const Stream& stream = streams_[t];
    Rng rng(MixSeed(MixSeed(seed, t), 0x1257));
    for (int q = 0; q < kReadsPerRound; ++q) {
      PlannedRead read;
      read.stream = t;
      read.output = q / 8 % 2;
      if (q % 8 == 7) {
        read.mask = uint64_t{1} << (q / 8 % stream.width);
        read.cost = kOutputElements;
      } else {
        const double u = static_cast<double>(q) / (kReadsPerRound - 1);
        const uint64_t length = std::min<uint64_t>(
            kOutputElements,
            static_cast<uint64_t>(
                4.0 * std::pow(static_cast<double>(kChunkElements), u)));
        read.first = WindowFirst(q, length, kOutputElements, &rng);
        read.end = read.first + length;
        read.cost = length * stream.width;
      }
      plan_[q / kReadsPerStep].push_back(read);
    }
  }
  for (auto& reads : plan_) {
    std::stable_sort(reads.begin(), reads.end(),
                     [](const PlannedRead& a, const PlannedRead& b) {
                       return a.cost > b.cost;
                     });
  }
}

void Insitu::Write(uint64_t s, size_t t, uint64_t round, RunResult* part) {
  Stream& stream = streams_[t];
  if (s == 0) {
    stream.next.clear();
    stream.sink = std::make_unique<isobar::MemorySink>(&stream.next);
    stream.writer = std::make_unique<isobar::IsobarStreamWriter>(
        Options(), stream.width, stream.sink.get());
    stream.ok = true;
  }
  if (!stream.ok) return;
  const size_t step_bytes = kStepElements * stream.width;
  const std::string name(stream.spec.name);
  const auto timed = [&](uint64_t bytes, auto call) {
    Op op{OpKind::kCompress, NowNanos(), 0, bytes, round};
    const isobar::Status status = call();
    op.end_ns = NowNanos();
    part->ops.push_back(op);
    ++part->attempted;
    if (!status.ok()) {
      part->Fail(name + " append: " + status.ToString());
      stream.ok = false;
    }
  };
  timed(step_bytes, [&] {
    return stream.writer->Append(
        ByteSpan(stream.outputs[1]).subspan(s * step_bytes, step_bytes));
  });
  if (s + 1 < kStepsPerOutput || !stream.ok) return;
  timed(0, [&] { return stream.writer->Finish(); });
  if (!stream.ok) return;
  const std::string chunks =
      CheckChunkCount(stream.next, kOutputElements, kChunkElements);
  if (!chunks.empty()) {
    part->Fail(name + " finish: " + chunks);
    stream.ok = false;
    return;
  }
  part->container_input_bytes += stream.outputs[1].size();
  part->container_bytes += stream.next.size();
}

void Insitu::Read(const PlannedRead& read, bool corrupt, uint64_t round,
                  RunResult* part) const {
  const Stream& stream = streams_[read.stream];
  const ByteSpan container(stream.container(read.output));
  const ByteSpan original(stream.outputs[read.output]);
  isobar::DecompressOptions decode;
  decode.num_threads = 1;
  Op op{OpKind::kDecompress, NowNanos(), 0, 0, round};
  isobar::Result<Bytes> got =
      read.mask != 0 ? isobar::IsobarCompressor::DecompressColumns(
                           container, read.mask, decode)
                     : isobar::IsobarCompressor::DecompressRange(
                           container, read.first, read.end, decode);
  op.end_ns = NowNanos();
  ++part->attempted;
  const std::string name(stream.spec.name);
  if (!got.ok()) {
    part->ops.push_back(op);
    part->Fail(name + " read: " + got.status().ToString());
    return;
  }
  op.bytes = got->size();
  part->ops.push_back(op);
  if (corrupt) (*got)[0] ^= 0x01;
  const bool same =
      read.mask != 0
          ? *got == PlainColumns(original, stream.width, read.mask)
          : std::equal(got->begin(), got->end(),
                       original.begin() + read.first * stream.width,
                       original.begin() + read.end * stream.width);
  if (!same) part->Fail(name + " read: output differs from the regenerated steps");
}

void Insitu::EndRound() {
  for (Stream& stream : streams_) {
    stream.writer.reset();
    stream.sink.reset();
    if (stream.ok) std::swap(stream.last, stream.next);
  }
}

RunResult Insitu::Run(const Args& args) {
  streams_.resize(kStreams);
  RunResult result;
  std::vector<RunResult> parts(kThreads);
  std::atomic<size_t> next_task{0};
  std::atomic<bool> setup_failed{false};
  int64_t deadline = 0;
  uint64_t round = 0;
  int phase = 0;  // of the round's 2 * kStepsPerOutput
  bool stop = false;
  // Runs once all threads arrive, before any goes on: hands out the next
  // phase's list from its start, starts the clock after set-up, and
  // decides after each round whether another follows.
  auto completion = [&]() noexcept {
    next_task = 0;
    const int64_t now = NowNanos();
    if (result.setup_end_ns == 0) {
      result.setup_end_ns = now;
      deadline = now + static_cast<int64_t>(args.seconds * 1e9);
      stop = setup_failed.load();
      if (!stop) Plan(args.seed);
      return;
    }
    if (++phase < static_cast<int>(2 * kStepsPerOutput)) return;
    phase = 0;
    EndRound();
    ++round;
    stop = now >= deadline;
  };
  std::barrier sync(kThreads, completion);

  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      RunResult* part = &parts[w];
      for (size_t t; (t = next_task++) < kStreams;) {
        if (!SetUp(args, t, part)) setup_failed = true;
      }
      sync.arrive_and_wait();
      while (!stop) {
        for (uint64_t s = 0; s < kStepsPerOutput; ++s) {
          for (size_t t; (t = next_task++) < kStreams;) {
            Write(s, t, round, part);
          }
          sync.arrive_and_wait();
          const std::vector<PlannedRead>& reads = plan_[s];
          for (size_t i; (i = next_task++) < reads.size();) {
            const bool corrupt =
                args.inject_fault && round == 0 && s == 0 && i == 0;
            Read(reads[i], corrupt, round, part);
          }
          sync.arrive_and_wait();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (const RunResult& part : parts) {
    result.ops.insert(result.ops.end(), part.ops.begin(), part.ops.end());
    result.attempted += part.attempted;
    result.failed += part.failed;
    result.container_input_bytes += part.container_input_bytes;
    result.container_bytes += part.container_bytes;
    for (const std::string& failure : part.failures) {
      if (result.failures.size() < 8) result.failures.push_back(failure);
    }
  }
  result.rounds = round;
  result.info["streams"] = kStreams;
  result.info["reads_per_round"] =
      static_cast<double>(kStreams * kReadsPerRound);
  return result;
}

LayerInputs Insitu::Inputs() const {
  // Rank 0's streams and their reads: the other ranks do the same work on
  // other seeds.
  LayerInputs inputs;
  inputs.options = Options();
  inputs.read_threads = 1;
  for (size_t p = 0; p < std::size(kProfiles); ++p) {
    const Stream& stream = streams_[p * kRanks];
    inputs.items.push_back({ByteSpan(stream.outputs[1]), stream.width});
    for (int o = 0; o < 2; ++o) {
      inputs.containers.push_back({ByteSpan(stream.container(o)),
                                   ByteSpan(stream.outputs[o]), stream.width});
    }
  }
  for (const auto& reads : plan_) {
    for (const PlannedRead& read : reads) {
      if (read.stream % kRanks != 0) continue;
      const size_t ref = 2 * (read.stream / kRanks) +
                         static_cast<size_t>(read.output);
      if (read.mask != 0) {
        inputs.columns.push_back({ref, read.mask});
      } else {
        inputs.ranges.push_back({ref, read.first, read.end});
      }
    }
  }
  return inputs;
}

}  // namespace

std::unique_ptr<Workload> MakeInsitu() { return std::make_unique<Insitu>(); }

}  // namespace perfbench
