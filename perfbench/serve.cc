// serve: small requests to an in-process IsobarServer.
//
// The server listens on a Unix socket, with telemetry on as isobard runs
// it and 2 workers. Two client connections run closed-loop, each keeping 2
// requests outstanding, which stays far below the queue bound, so nothing
// is shed. Payloads are 32 KiB cut from every datagen profile, two per
// profile. A round is one compress request per payload (automatic
// selection under the ratio preference) and 20 decompress requests of
// containers built during set-up, spread evenly: 48 of 68 requests, 71%,
// are compresses. The order does not depend on the seed, so neither does
// the queue a request meets; only the payload bytes do. Both clients take
// their next request from the one round sequence, so a round is a stretch
// of time in which both work.
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <thread>

#include "perfbench.h"
#include "server/client.h"
#include "server/server.h"
#include "telemetry/json_reader.h"
#include "telemetry/metrics.h"

namespace perfbench {
namespace {

using isobar::Bytes;
using isobar::ByteSpan;
namespace server = isobar::server;

constexpr size_t kPayloadBytes = 32 * 1024;
constexpr size_t kClients = 2;
constexpr size_t kOutstanding = 2;
constexpr size_t kDecompressPerRound = 20;
constexpr uint32_t kWorkers = 2;

struct Payload {
  Bytes data;
  size_t width = 8;
  Bytes container;  // IsobarCompressor::Compress with the request's options
};

struct Request {
  server::Op op = server::Op::kCompress;
  size_t payload = 0;
};

class Serve final : public Workload {
 public:
  RunResult Run(const Args& args) override;
  LayerInputs Inputs() const override;

 private:
  static isobar::CompressOptions Options() {
    isobar::CompressOptions options;
    options.eupa.preference = isobar::Preference::kRatio;
    options.num_threads = 1;
    return options;
  }

  void RunClient(size_t c, const std::string& socket_path, int64_t deadline,
                 bool inject_fault, RunResult* result, uint64_t* bytes_sent);
  // Hands out the next request of the round sequence; false once the
  // round that ends past `deadline` has been handed out in full.
  bool NextRequest(int64_t deadline, Request* request, uint64_t* round);

  std::vector<Payload> payloads_;  // kClients per profile
  std::vector<Request> round_;
  std::mutex cursor_mutex_;
  uint64_t cursor_ = 0;  // requests handed out, guarded by cursor_mutex_
  bool stopping_ = false;  // guarded by cursor_mutex_
  double p50_ms_ = 0.0;
  std::string stats_json_;
};

bool Serve::NextRequest(int64_t deadline, Request* request, uint64_t* round) {
  std::lock_guard<std::mutex> lock(cursor_mutex_);
  if (!stopping_ && cursor_ > 0 && cursor_ % round_.size() == 0 &&
      NowNanos() >= deadline) {
    stopping_ = true;
  }
  if (stopping_) return false;
  *round = cursor_ / round_.size();
  *request = round_[cursor_++ % round_.size()];
  return true;
}

void Serve::RunClient(size_t c, const std::string& socket_path,
                      int64_t deadline, bool inject_fault, RunResult* result,
                      uint64_t* bytes_sent) {
  auto connected = server::Client::ConnectUnix(socket_path);
  if (!connected.ok()) {
    ++result->attempted;
    result->Fail("connect: " + connected.status().ToString());
    return;
  }
  server::Client client = std::move(*connected);
  struct InFlight {
    uint64_t id;
    Request request;
    int64_t sent_ns;
    uint64_t round;
  };
  std::vector<InFlight> in_flight;
  uint64_t next_id = 1;
  bool corrupt = inject_fault && c == 0;
  bool more = true;
  while (true) {
    // Rounds run back to back; the window only drains after the round
    // that ends past the deadline.
    Request request;
    uint64_t round = 0;
    while (more && in_flight.size() < kOutstanding &&
           (more = NextRequest(deadline, &request, &round))) {
      const Payload& payload = payloads_[request.payload];
      const ByteSpan body = request.op == server::Op::kCompress
                                ? ByteSpan(payload.data)
                                : ByteSpan(payload.container);
      const uint64_t request_aux =
          request.op == server::Op::kCompress
              ? server::PackCompressAux({payload.width, std::nullopt,
                                         std::nullopt,
                                         isobar::Preference::kRatio})
              : 0;
      const int64_t sent_ns = NowNanos();
      ++result->attempted;
      const isobar::Status sent =
          client.Send(request.op, next_id, request_aux, body);
      if (!sent.ok()) {
        result->Fail("send: " + sent.ToString());
        return;
      }
      *bytes_sent += server::kFrameHeaderSize + body.size();
      in_flight.push_back({next_id++, request, sent_ns, round});
    }
    if (in_flight.empty()) return;
    auto response = client.ReadResponse();
    const int64_t received_ns = NowNanos();
    if (!response.ok()) {
      result->Fail("read: " + response.status().ToString());
      return;
    }
    auto it = std::find_if(in_flight.begin(), in_flight.end(),
                           [&](const InFlight& f) {
                             return f.id == response->request_id;
                           });
    if (it == in_flight.end()) {
      result->Fail("reply to unknown request " +
                   std::to_string(response->request_id));
      return;
    }
    const InFlight done = *it;
    in_flight.erase(it);
    const Payload& payload = payloads_[done.request.payload];
    const bool compress = done.request.op == server::Op::kCompress;
    result->ops.push_back({compress ? OpKind::kCompress : OpKind::kDecompress,
                           done.sent_ns, received_ns, payload.data.size(),
                           done.round});
    if (!response->ok()) {
      result->Fail(std::string(compress ? "compress" : "decompress") +
                   " reply: " + response->ToStatus().ToString());
      continue;
    }
    if (corrupt && compress) {
      response->payload[response->payload.size() / 2] ^= 0x01;
      corrupt = false;
    }
    if (compress) {
      result->container_input_bytes += payload.data.size();
      result->container_bytes += response->payload.size();
    }
    const Bytes& expected = compress ? payload.container : payload.data;
    if (response->payload != expected) {
      result->Fail(compress
                       ? "compress reply differs from IsobarCompressor::Compress"
                       : "decompress reply differs from the payload");
    }
  }
}

// Reads counter `name` from a STATS JSON; -1 when absent.
double Counter(const isobar::telemetry::JsonValue& stats,
               std::string_view name) {
  const auto* counters = stats.Find("counters");
  return counters == nullptr ? -1.0 : counters->FieldNumberOr(name, -1.0);
}

RunResult Serve::Run(const Args& args) {
  RunResult result;
  isobar::telemetry::SetEnabled(true);
  Rng rng(MixSeed(args.seed, 0x5E4E));
  const isobar::IsobarCompressor compressor(Options());
  for (const isobar::DatasetSpec& profile : isobar::AllDatasetSpecs()) {
    const isobar::DatasetSpec spec = SeededSpec(profile.name, args.seed);
    const size_t width = isobar::ElementWidth(spec.type);
    const uint64_t elements = 16 * kPayloadBytes / width;
    auto dataset = isobar::GenerateDataset(spec, elements);
    if (!dataset.ok() || dataset->width() != width) {
      result.Fail("generate " + std::string(spec.name));
      return result;
    }
    const size_t slots = dataset->data.size() / kPayloadBytes;
    const size_t base = rng.Below(slots);
    for (size_t c = 0; c < kClients; ++c) {
      const size_t offset =
          (base + c * slots / kClients) % slots * kPayloadBytes;
      Payload payload;
      payload.width = width;
      payload.data.assign(dataset->data.begin() + offset,
                          dataset->data.begin() + offset + kPayloadBytes);
      auto container = compressor.Compress(payload.data, width);
      auto restored = container.ok()
                          ? isobar::IsobarCompressor::Decompress(*container)
                          : container;
      if (!restored.ok() || *restored != payload.data) {
        result.Fail("set-up compress of " + std::string(spec.name) +
                    " does not decode to its payload");
        return result;
      }
      payload.container = std::move(*container);
      payloads_.push_back(std::move(payload));
    }
  }
  const size_t n = payloads_.size() + kDecompressPerRound;
  size_t compressed = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t k = (i + 1) * kDecompressPerRound / n;
    if (k > i * kDecompressPerRound / n) {
      // Decompress the container of a payload spread across the profiles.
      round_.push_back({server::Op::kDecompress,
                        (k - 1) * payloads_.size() / kDecompressPerRound});
    } else {
      round_.push_back({server::Op::kCompress, compressed++});
    }
  }

  server::ServerOptions options;
  options.unix_socket_path =
      args.work_dir + "/perfbench-" + std::to_string(getpid()) + ".sock";
  options.jobs.num_threads = kWorkers;
  server::IsobarServer daemon(options);
  const isobar::Status started = daemon.Start();
  if (!started.ok()) {
    result.Fail("server start: " + started.ToString());
    return result;
  }
  result.setup_end_ns = NowNanos();

  const int64_t deadline =
      result.setup_end_ns + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<RunResult> per_client(kClients);
  std::vector<uint64_t> bytes_sent(kClients, 0);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      RunClient(c, options.unix_socket_path, deadline, args.inject_fault,
                &per_client[c], &bytes_sent[c]);
    });
  }
  for (std::thread& t : clients) t.join();
  result.rounds = cursor_ / round_.size();

  uint64_t compresses = 0;
  uint64_t total_sent = server::kFrameHeaderSize;  // the STATS request below
  for (size_t c = 0; c < kClients; ++c) {
    RunResult& part = per_client[c];
    for (const Op& op : part.ops) {
      if (op.kind == OpKind::kCompress) ++compresses;
    }
    result.ops.insert(result.ops.end(), part.ops.begin(), part.ops.end());
    result.attempted += part.attempted;
    result.failed += part.failed;
    result.container_input_bytes += part.container_input_bytes;
    result.container_bytes += part.container_bytes;
    for (std::string& f : part.failures) {
      if (result.failures.size() < 8) result.failures.push_back(std::move(f));
    }
    total_sent += bytes_sent[c];
  }

  // The server's own tallies must match what the clients sent.
  auto stats_client = server::Client::ConnectUnix(options.unix_socket_path);
  auto stats = stats_client.ok() ? stats_client->Stats()
                                 : isobar::Result<std::string>(
                                       stats_client.status());
  daemon.Stop();
  unlink(options.unix_socket_path.c_str());
  if (!stats.ok()) {
    result.Fail("stats: " + stats.status().ToString());
    return result;
  }
  stats_json_ = *stats;
  auto parsed = isobar::telemetry::ParseJson(stats_json_);
  if (!parsed.ok()) {
    result.Fail("stats: " + parsed.status().ToString());
    return result;
  }
  const uint64_t decompresses = result.ops.size() - compresses;
  const std::pair<std::string_view, double> expected[] = {
      {"server.requests.compress", static_cast<double>(compresses)},
      {"server.requests.decompress", static_cast<double>(decompresses)},
      {"server.bytes_in", static_cast<double>(total_sent)},
      {"server.failed", 0.0},
      {"server.rejected", 0.0},
  };
  for (const auto& [name, want] : expected) {
    const double got = Counter(*parsed, name);
    if (got != want) {
      result.Fail("STATS " + std::string(name) + " = " + std::to_string(got) +
                  ", client counted " + std::to_string(want));
    }
  }

  std::vector<double> latency;
  for (const Op& op : result.ops) {
    latency.push_back(static_cast<double>(op.end_ns - op.start_ns) / 1e6);
  }
  p50_ms_ = Median(latency);
  result.info["clients"] = kClients;
  result.info["outstanding_per_client"] = kOutstanding;
  result.info["workers"] = kWorkers;
  result.info["payload_bytes"] = kPayloadBytes;
  return result;
}

LayerInputs Serve::Inputs() const {
  LayerInputs inputs;
  inputs.options = Options();
  // One round: every payload compressed once, and the containers its
  // decompress requests name.
  for (const Payload& payload : payloads_) {
    inputs.items.push_back({ByteSpan(payload.data), payload.width});
  }
  for (const Request& request : round_) {
    if (request.op != server::Op::kDecompress) continue;
    const Payload& payload = payloads_[request.payload];
    inputs.containers.push_back({ByteSpan(payload.container),
                                 ByteSpan(payload.data), payload.width});
  }
  Rng rng(0x5E4E);
  for (size_t c = 0; c < inputs.containers.size(); ++c) {
    const uint64_t n = inputs.containers[c].original.size() /
                       inputs.containers[c].width;
    const uint64_t first = rng.Below(n / 2);
    inputs.ranges.push_back({c, first, first + n / 4});
    inputs.columns.push_back({c, RandomMask(&rng, inputs.containers[c].width)});
  }
  inputs.serve_p50_ms = p50_ms_;
  inputs.serve_stats_json = stats_json_;
  return inputs;
}

}  // namespace

std::unique_ptr<Workload> MakeServe() { return std::make_unique<Serve>(); }

}  // namespace perfbench
