// Layer replay of the traced run: the workload's own inputs go once more
// through each layer's public function, timed from outside the program,
// so that a change in an end-to-end figure can be traced to the layer
// that moved. Every timed call is also recorded as a span (name, start,
// end, parent stage) and written out when the replay ends.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "compressors/registry.h"
#include "core/analyzer.h"
#include "core/chunk_codec.h"
#include "core/container.h"
#include "core/eupa_selector.h"
#include "core/partitioner.h"
#include "core/stream.h"
#include "io/sink.h"
#include "linearize/transpose.h"
#include "perfbench.h"
#include "server/client.h"
#include "server/job_queue.h"
#include "server/protocol.h"
#include "server/server.h"
#include "telemetry/json_reader.h"
#include "telemetry/metrics.h"
#include "util/crc32c.h"
#include "util/scratch_arena.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using isobar::Bytes;
using isobar::ByteSpan;
using isobar::CodecId;
namespace server = isobar::server;

// Packed-section bytes each solver encodes and decodes, so that bzip2 on a
// large workload stays within a few seconds.
constexpr size_t kSolverBudget = 8u << 20;
constexpr size_t kSmallCall = 32 * 1024;
constexpr CodecId kSolvers[] = {CodecId::kLzans, CodecId::kZlib,
                                CodecId::kBzip2};

// Total time, bytes and per-call times of one layer.
struct Tally {
  double seconds = 0.0;
  double bytes = 0.0;
  std::vector<double> calls;

  double MBps() const { return seconds > 0.0 ? bytes / 1e6 / seconds : 0.0; }
  double MedianCall() const { return Median(calls); }
};

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

class Replay {
 public:
  Replay(const Args& args, const LayerInputs& in, RunResult* result)
      : args_(args), in_(in), result_(result) {}

  void Run(Metrics* out);

 private:
  // Runs `fn` as one call of layer `name` over `bytes` bytes.
  template <typename F>
  auto Time(const std::string& name, double bytes, F&& fn) {
    const int64_t start = NowNanos();
    auto value = fn();
    const int64_t end = NowNanos();
    Tally& tally = tallies_[name];
    tally.seconds += static_cast<double>(end - start) / 1e9;
    tally.bytes += bytes;
    tally.calls.push_back(static_cast<double>(end - start) / 1e9);
    spans_.push_back({name, start, end, stage_});
    return value;
  }

  void Stage(const std::string& name) {
    if (stage_ >= 0) spans_[stage_].end_ns = NowNanos();
    stage_ = static_cast<int>(spans_.size());
    spans_.push_back({name, NowNanos(), 0, -1});
  }

  bool Check(bool ok, const std::string& what) {
    if (!ok) result_->Fail("trace: " + what);
    return ok;
  }

  void Chunks();
  void Solvers();
  void Selector();
  void Pool();
  void Pipeline(Metrics* out);
  void StreamAndReads(Metrics* out);
  void Server(Metrics* out);
  void WriteSpans() const;

  const Args& args_;
  const LayerInputs& in_;
  RunResult* result_;
  std::map<std::string, Tally> tallies_;
  std::vector<isobar::container::ChunkIndex> indexes_;
  std::vector<Bytes> packed_;  // compressible sections for the solver replay
  double eupa_trials_ = 0.0;
  std::vector<Span> spans_;
  int stage_ = -1;
};

// Re-encodes every chunk of every container with the codec and
// linearization its header names, and times each chunk-level layer.
void Replay::Chunks() {
  Stage("chunks");
  isobar::ScratchArena& arena = isobar::ScratchArena::ThreadLocal();
  size_t packed_bytes = 0;
  for (size_t k = 0; k < in_.containers.size(); ++k) {
    const ContainerRef& ref = in_.containers[k];
    const size_t w = ref.width;
    size_t offset = 0;
    auto parsed = Time("container.index_parse", 0, [&] {
      auto header = isobar::container::ParseHeader(ref.bytes, &offset);
      return std::make_pair(
          header, header.ok() ? isobar::container::ParseFooter(ref.bytes, *header)
                              : isobar::Result<isobar::container::ChunkIndex>(
                                    header.status()));
    });
    indexes_.emplace_back();
    if (!Check(parsed.second.ok(), "container " + std::to_string(k) +
                                       " index: " +
                                       parsed.second.status().ToString())) {
      continue;
    }
    const isobar::container::Header& header = *parsed.first;
    indexes_.back() = *parsed.second;
    const auto& entries = indexes_.back().entries;
    auto codec = isobar::GetCodec(header.codec);
    if (!Check(codec.ok(), "unknown codec in container header")) continue;
    isobar::AnalyzerOptions analyzer_options;
    analyzer_options.tau = header.tau_centi / 100.0;
    const isobar::Analyzer analyzer(analyzer_options);
    const isobar::Linearization raw =
        isobar::container::RawSectionLinearization(header.version);
    const uint64_t full = w >= 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;

    for (size_t i = 0; i < entries.size(); ++i) {
      const auto& entry = entries[i];
      const ByteSpan chunk =
          ref.original.subspan(entry.element_offset * w, entry.element_count * w);
      const size_t record_end = i + 1 < entries.size()
                                    ? entries[i + 1].record_offset
                                    : indexes_.back().payload_end;
      const ByteSpan record = ref.bytes.subspan(
          entry.record_offset, record_end - entry.record_offset);
      const double n = static_cast<double>(chunk.size());

      auto analysis = Time("analyzer", n, [&] { return analyzer.Analyze(chunk, w); });
      Check(analysis.ok(), "analyze: " + analysis.status().ToString());

      Bytes encoded;
      const isobar::Status encoded_status = Time("chunk_codec.encode", n, [&] {
        return isobar::EncodeChunk(analyzer, **codec, header.linearization,
                                   chunk, w, &encoded, nullptr, 0, nullptr,
                                   &arena, i, raw);
      });
      if (args_.inject_fault && k == 0 && i == 0 && !encoded.empty()) {
        encoded[encoded.size() / 2] ^= 0x01;
      }
      Check(encoded_status.ok() &&
                std::equal(encoded.begin(), encoded.end(), record.begin(),
                           record.end()),
            "container " + std::to_string(k) + " chunk " + std::to_string(i) +
                ": EncodeChunk does not reproduce the pipeline's record");

      size_t record_offset = entry.record_offset;
      Bytes decoded;
      const isobar::Status decoded_status = Time("chunk_codec.decode", n, [&] {
        return isobar::DecodeChunk(ref.bytes, &record_offset, **codec,
                                   header.linearization, w,
                                   header.chunk_elements, true, &decoded,
                                   nullptr, i, nullptr, nullptr, &arena, raw);
      });
      Check(decoded_status.ok() &&
                std::equal(decoded.begin(), decoded.end(), chunk.begin(),
                           chunk.end()),
            "DecodeChunk output differs from the original chunk");

      const uint32_t crc =
          Time("crc32c", n, [&] { return isobar::crc32c::Value(chunk); });
      Check(crc == entry.crc32c, "chunk CRC differs from the index entry");

      const uint64_t mask =
          entry.flags & isobar::container::kChunkUndetermined
              ? full
              : entry.compressible_mask;
      if (mask == 0) continue;
      isobar::Partition partition;
      const isobar::Status gathered =
          Time("partitioner.gather", n, [&] {
            return isobar::PartitionData(chunk, w, mask, header.linearization,
                                         &partition);
          });
      if (!Check(gathered.ok(), "PartitionData: " + gathered.ToString())) {
        continue;
      }
      Bytes scattered(chunk.size());
      const isobar::Status scatter = Time(
          "linearize.scatter",
          static_cast<double>(partition.compressible.size()), [&] {
            return isobar::ScatterColumns(partition.compressible, w, mask,
                                          header.linearization,
                                          isobar::MutableByteSpan(scattered));
          });
      Check(scatter.ok() && PlainColumns(scattered, w, mask) ==
                                PlainColumns(chunk, w, mask),
            "ScatterColumns does not restore the gathered columns");
      if (packed_bytes < kSolverBudget) {
        packed_bytes += partition.compressible.size();
        packed_.push_back(std::move(partition.compressible));
      }
    }
  }
}

void Replay::Solvers() {
  Stage("solvers");
  for (CodecId id : kSolvers) {
    auto codec = isobar::GetCodec(id);
    if (!Check(codec.ok(), "GetCodec")) continue;
    const std::string prefix =
        "solver." + std::string(isobar::CodecIdToString(id));
    for (const Bytes& input : packed_) {
      const double n = static_cast<double>(input.size());
      Bytes compressed;
      Bytes restored;
      const isobar::Status encoded = Time(prefix + ".encode", n, [&] {
        return (*codec)->Compress(input, &compressed);
      });
      const isobar::Status decoded = Time(prefix + ".decode", n, [&] {
        return (*codec)->Decompress(compressed, input.size(), &restored);
      });
      Check(encoded.ok() && decoded.ok() && restored == input,
            prefix + " round trip differs");
    }
    if (in_.items.empty()) continue;
    const ByteSpan first = in_.items.front().data;
    const ByteSpan small = first.subspan(0, std::min(first.size(), kSmallCall));
    for (int call = 0; call < 15; ++call) {
      Bytes compressed;
      const isobar::Status status = Time(prefix + ".small_call", 0, [&] {
        return (*codec)->Compress(small, &compressed);
      });
      Check(status.ok(), prefix + " small call: " + status.ToString());
    }
  }
}

// EupaSelector::Select as Compress calls it: on the whole item, with the
// mask the analyzer gives its training probe.
void Replay::Selector() {
  Stage("eupa");
  const isobar::EupaOptions& eupa = in_.options.eupa;
  const isobar::Analyzer analyzer(in_.options.analyzer);
  const isobar::EupaSelector selector(eupa);
  double trials = 0.0;  // non-pruned trials over all Select calls
  for (const Item& item : in_.items) {
    const size_t w = item.width;
    const uint64_t n = item.data.size() / w;
    const uint64_t probe = std::min<uint64_t>(n, eupa.sample_elements);
    auto analysis = analyzer.Analyze(item.data.subspan(0, probe * w), w);
    if (!Check(analysis.ok(), "probe analyze")) continue;
    const uint64_t full = w >= 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;
    const uint64_t mask =
        analysis->improvable() ? analysis->compressible_mask : full;
    auto decision = Time("eupa.select", 0,
                         [&] { return selector.Select(item.data, w, mask); });
    if (!Check(decision.ok(), "Select: " + decision.status().ToString())) {
      continue;
    }
    for (const auto& evaluation : decision->evaluations) {
      if (!evaluation.pruned) trials += 1.0;
    }
  }
  eupa_trials_ = trials;
}

void Replay::Pool() {
  Stage("thread_pool");
  for (int i = 0; i < 30; ++i) {
    Time("thread_pool.spawn", 0, [] {
      isobar::ThreadPool pool(4);
      return pool.size();
    });
  }
  isobar::ThreadPool pool(4);
  for (int i = 0; i < 2000; ++i) {
    Time("thread_pool.task", 0, [&] {
      pool.Submit([] {}).get();
      return 0;
    });
  }
}

double CpuSys(const rusage& u) {
  return static_cast<double>(u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_stime.tv_usec) / 1e6;
}

// The workload's own compress and decompress calls at 4 threads and at 1.
void Replay::Pipeline(Metrics* out) {
  Stage("pipeline");
  double faults = 0.0;
  double sys = 0.0;
  double bytes = 0.0;
  for (uint32_t threads : {4u, 1u}) {
    const std::string suffix = threads == 1 ? ".1t" : ".4t";
    isobar::CompressOptions options = in_.options;
    options.num_threads = threads;
    const isobar::IsobarCompressor compressor(options);
    isobar::DecompressOptions decode;
    decode.num_threads = threads;
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    for (const Item& item : in_.items) {
      const double n = static_cast<double>(item.data.size());
      auto container = Time("pipeline.compress" + suffix, n, [&] {
        return compressor.Compress(item.data, item.width);
      });
      Check(container.ok(), "pipeline compress");
    }
    for (const ContainerRef& ref : in_.containers) {
      const double n = static_cast<double>(ref.original.size());
      auto restored = Time("pipeline.decompress" + suffix, n, [&] {
        return isobar::IsobarCompressor::Decompress(ref.bytes, decode);
      });
      Check(restored.ok() && std::equal(restored->begin(), restored->end(),
                                        ref.original.begin(),
                                        ref.original.end()),
            "pipeline decompress differs from the original");
    }
    rusage after{};
    getrusage(RUSAGE_SELF, &after);
    if (threads == 4) {
      faults = static_cast<double>(after.ru_minflt - before.ru_minflt);
      sys = CpuSys(after) - CpuSys(before);
      bytes = tallies_["pipeline.compress.4t"].bytes +
              tallies_["pipeline.decompress.4t"].bytes;
    }
  }
  auto ratio = [&](const char* op) {
    const double one = tallies_[std::string(op) + ".1t"].seconds;
    const double four = tallies_[std::string(op) + ".4t"].seconds;
    return four > 0.0 ? one / four : 0.0;
  };
  (*out)["pipeline.speedup_compress"] = {ratio("pipeline.compress"), "x"};
  (*out)["pipeline.speedup_decompress"] = {ratio("pipeline.decompress"), "x"};
  (*out)["pipeline.minor_faults_per_MB"] = {bytes > 0.0 ? faults / (bytes / 1e6) : 0.0, "count/MB"};
  (*out)["pipeline.sys_s_per_GB"] = {bytes > 0.0 ? sys / (bytes / 1e9) : 0.0, "s/GB"};
  result_->info["baseline_1t.compress_MBps"] =
      tallies_["pipeline.compress.1t"].MBps();
  result_->info["baseline_1t.decompress_MBps"] =
      tallies_["pipeline.decompress.1t"].MBps();
}

void Replay::StreamAndReads(Metrics* out) {
  Stage("stream");
  for (const Item& item : in_.items) {
    Bytes container;
    isobar::MemorySink sink(&container);
    isobar::IsobarStreamWriter writer(in_.options, item.width, &sink);
    const isobar::Status status =
        Time("stream.append", static_cast<double>(item.data.size()), [&] {
          const isobar::Status appended = writer.Append(item.data);
          return appended.ok() ? writer.Finish() : appended;
        });
    auto restored = isobar::IsobarCompressor::Decompress(container);
    Check(status.ok() && restored.ok() &&
              std::equal(restored->begin(), restored->end(), item.data.begin(),
                         item.data.end()),
          "streamed container does not decode to the item");
  }

  Stage("reads");
  isobar::DecompressOptions decode;
  decode.num_threads = in_.read_threads;
  double covering = 0.0;
  double returned = 0.0;
  for (const RangeRead& range : in_.ranges) {
    const ContainerRef& ref = in_.containers[range.container];
    const size_t w = ref.width;
    auto got = Time("range.read", 0, [&] {
      return isobar::IsobarCompressor::DecompressRange(ref.bytes, range.first,
                                                       range.end, decode);
    });
    const ByteSpan want =
        ref.original.subspan(range.first * w, (range.end - range.first) * w);
    Check(got.ok() && std::equal(got->begin(), got->end(), want.begin(),
                                 want.end()),
          "range read differs from the original slice");
    for (const auto& entry : indexes_[range.container].entries) {
      if (entry.element_offset < range.end &&
          entry.element_offset + entry.element_count > range.first) {
        covering += static_cast<double>(entry.element_count * w);
      }
    }
    returned += static_cast<double>(want.size());
  }
  (*out)["range.decode_amplification"] = {returned > 0.0 ? covering / returned : 0.0, "x"};
  for (const ColumnRead& read : in_.columns) {
    const ContainerRef& ref = in_.containers[read.container];
    auto got = Time("columns.read", 0, [&] {
      return isobar::IsobarCompressor::DecompressColumns(ref.bytes, read.mask,
                                                         decode);
    });
    Check(got.ok() && *got == PlainColumns(ref.original, ref.width, read.mask),
          "column read differs from the plain byte planes");
  }
}

// Histogram `name` of a STATS JSON, field `field`; 0 when absent.
double HistogramField(const isobar::telemetry::JsonValue& stats,
                      std::string_view name, std::string_view field) {
  const auto* histograms = stats.Find("histograms");
  if (histograms == nullptr || !histograms->is_array()) return 0.0;
  for (const auto& h : histograms->array_items()) {
    if (h.FieldStringOr("name", "") == name) return h.FieldNumberOr(field, 0.0);
  }
  return 0.0;
}

void Replay::Server(Metrics* out) {
  Stage("server");
  // The workload's requests, built as the server builds them from a frame.
  std::vector<server::JobRequest> requests;
  std::vector<Bytes> frames;
  uint64_t id = 1;
  for (const Item& item : in_.items) {
    server::JobRequest request;
    request.kind = server::JobKind::kCompress;
    request.input.assign(item.data.begin(), item.data.end());
    request.width = item.width;
    request.compress_options.eupa.preference = in_.options.eupa.preference;
    request.compress_options.eupa.forced_codec = in_.options.eupa.forced_codec;
    const uint64_t aux = server::PackCompressAux(
        {item.width, in_.options.eupa.forced_codec, std::nullopt,
         in_.options.eupa.preference});
    frames.push_back(
        server::EncodeRequest(server::Op::kCompress, id++, aux, item.data));
    requests.push_back(std::move(request));
  }
  for (const ContainerRef& ref : in_.containers) {
    server::JobRequest request;
    request.kind = server::JobKind::kDecompress;
    request.input.assign(ref.bytes.begin(), ref.bytes.end());
    frames.push_back(
        server::EncodeRequest(server::Op::kDecompress, id++, 0, ref.bytes));
    requests.push_back(std::move(request));
  }

  double serve_p50_ms = in_.serve_p50_ms;
  std::string stats_json = in_.serve_stats_json;
  if (stats_json.empty()) {
    // Serve the requests one at a time through a fresh in-process server.
    isobar::telemetry::SetEnabled(true);
    server::ServerOptions options;
    options.unix_socket_path = args_.work_dir + "/perfbench-trace-" +
                               std::to_string(getpid()) + ".sock";
    options.jobs.num_threads = 2;
    server::IsobarServer daemon(options);
    std::vector<double> latency;
    if (Check(daemon.Start().ok(), "server start")) {
      auto client = server::Client::ConnectUnix(options.unix_socket_path);
      if (Check(client.ok(), "connect")) {
        for (size_t r = 0; r < requests.size(); ++r) {
          const bool compress = requests[r].kind == server::JobKind::kCompress;
          const int64_t start = NowNanos();
          auto reply = client->Call(
              compress ? server::Op::kCompress : server::Op::kDecompress,
              compress ? server::PackCompressAux(
                             {requests[r].width,
                              in_.options.eupa.forced_codec, std::nullopt,
                              in_.options.eupa.preference})
                       : 0,
              requests[r].input);
          latency.push_back(static_cast<double>(NowNanos() - start) / 1e6);
          if (!Check(reply.ok() && reply->ok(), "served request failed")) {
            continue;
          }
          if (compress) {
            auto restored = isobar::IsobarCompressor::Decompress(reply->payload);
            Check(restored.ok() && *restored == requests[r].input,
                  "served container does not decode to the payload");
          } else {
            Check(reply->payload.size() ==
                      in_.containers[r - in_.items.size()].original.size(),
                  "served decompress has the wrong size");
          }
        }
        auto stats = client->Stats();
        if (Check(stats.ok(), "stats")) stats_json = *stats;
      }
    }
    daemon.Stop();
    unlink(options.unix_socket_path.c_str());
    serve_p50_ms = Median(latency);
  }

  for (const server::JobRequest& request : requests) {
    const server::JobResult done = Time("server.execute", 0, [&] {
      return server::JobQueue::ExecuteJob(request);
    });
    Check(done.status.ok(), "ExecuteJob: " + done.status.ToString());
  }
  const double execute_ms = tallies_["server.execute"].MedianCall() * 1e3;
  (*out)["server.execute_ms"] = {execute_ms, "ms"};
  (*out)["server.overhead_ms"] = {serve_p50_ms - execute_ms, "ms"};
  auto stats = isobar::telemetry::ParseJson(stats_json);
  if (Check(stats.ok(), "STATS JSON does not parse")) {
    (*out)["server.queue_wait_p50_us"] = {HistogramField(*stats, "server.queue_wait.nanos", "p50") / 1e3, "us"};
    (*out)["server.queue_wait_p99_us"] = {HistogramField(*stats, "server.queue_wait.nanos", "p99") / 1e3, "us"};
  }

  // The server reads sockets in 64 KiB pieces; feed the parser the same way.
  Bytes wire;
  for (const Bytes& frame : frames) wire.insert(wire.end(), frame.begin(), frame.end());
  for (int pass = 0; pass < 3; ++pass) {
    server::FrameParser parser(server::kRequestMagic);
    std::vector<server::Frame> parsed;
    const isobar::Status fed =
        Time("protocol.parse", static_cast<double>(wire.size()), [&] {
          isobar::Status status;
          for (size_t at = 0; at < wire.size() && status.ok(); at += 65536) {
            const size_t n = std::min<size_t>(65536, wire.size() - at);
            status = parser.Feed(ByteSpan(wire).subspan(at, n), &parsed);
          }
          return status;
        });
    Check(fed.ok() && parsed.size() == frames.size(),
          "FrameParser did not return every request frame");
  }
}

void Replay::WriteSpans() const {
  const std::string path =
      args_.work_dir + "/perfbench-trace-" + args_.workload + ".json";
  std::ofstream file(path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  file << "{\"workload\":\"" << args_.workload << "\",\"seed\":" << args_.seed
       << ",\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    file << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_us\":" << (s.start_ns - origin) / 1000
         << ",\"dur_us\":" << (s.end_ns - s.start_ns) / 1000
         << ",\"parent\":" << s.parent << "}";
  }
  file << "]}\n";
  if (!file) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

void Replay::Run(Metrics* out) {
  Chunks();
  Solvers();
  Selector();
  Pool();
  Pipeline(out);
  StreamAndReads(out);
  Server(out);
  if (stage_ >= 0) spans_[stage_].end_ns = NowNanos();

  auto mbps = [&](const char* name) { return tallies_[name].MBps(); };
  (*out)["analyzer.MBps"] = {mbps("analyzer"), "MB/s"};
  (*out)["partitioner.gather_MBps"] = {mbps("partitioner.gather"), "MB/s"};
  (*out)["linearize.scatter_MBps"] = {mbps("linearize.scatter"), "MB/s"};
  (*out)["chunk_codec.encode_MBps"] = {mbps("chunk_codec.encode"), "MB/s"};
  (*out)["chunk_codec.decode_MBps"] = {mbps("chunk_codec.decode"), "MB/s"};
  (*out)["crc32c.GBps"] = {mbps("crc32c") / 1e3, "GB/s"};
  (*out)["stream.append_MBps"] = {mbps("stream.append"), "MB/s"};
  (*out)["protocol.parse_MBps"] = {mbps("protocol.parse"), "MB/s"};
  for (CodecId id : kSolvers) {
    const std::string prefix =
        "solver." + std::string(isobar::CodecIdToString(id));
    (*out)[prefix + ".encode_MBps"] = {tallies_[prefix + ".encode"].MBps(), "MB/s"};
    (*out)[prefix + ".decode_MBps"] = {tallies_[prefix + ".decode"].MBps(), "MB/s"};
    (*out)[prefix + ".small_call_us"] = {
        tallies_[prefix + ".small_call"].MedianCall() * 1e6, "us"};
  }
  const Tally& select = tallies_["eupa.select"];
  (*out)["eupa.select_ms"] = {select.MedianCall() * 1e3, "ms"};
  const double trials = eupa_trials_;
  (*out)["eupa.trial_yield"] = {trials > 0.0 ? static_cast<double>(select.calls.size()) / trials : 0.0, "x"};
  (*out)["thread_pool.spawn_us"] = {tallies_["thread_pool.spawn"].MedianCall() * 1e6, "us"};
  (*out)["thread_pool.task_us"] = {tallies_["thread_pool.task"].MedianCall() * 1e6, "us"};
  (*out)["container.index_parse_us"] = {tallies_["container.index_parse"].MedianCall() * 1e6, "us"};
  (*out)["range.read_ms"] = {tallies_["range.read"].MedianCall() * 1e3, "ms"};
  (*out)["columns.read_ms"] = {tallies_["columns.read"].MedianCall() * 1e3, "ms"};
  WriteSpans();
}

}  // namespace

void ReplayLayers(const Args& args, const LayerInputs& inputs,
                  Metrics* out, RunResult* result) {
  Replay(args, inputs, result).Run(out);
}

}  // namespace perfbench
