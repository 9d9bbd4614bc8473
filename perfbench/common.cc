#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/container.h"
#include "perfbench.h"

namespace perfbench {

void RunResult::Fail(const std::string& what) {
  ++failed;
  // The first few messages are enough to locate a fault; the count says
  // how often it happened.
  if (failures.size() < 8) failures.push_back(what);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  Rng rng(a * 0xD1B54A32D192ED03ull + b);
  return rng.Next();
}

uint64_t RandomMask(Rng* rng, size_t width) {
  const uint64_t full = width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  uint64_t mask = 0;
  while (mask == 0) mask = rng->Next() & full;
  return mask;
}

isobar::DatasetSpec SeededSpec(std::string_view name, uint64_t seed) {
  auto found = isobar::FindDatasetSpec(name);
  if (!found.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", found.status().ToString().c_str());
    std::exit(2);
  }
  isobar::DatasetSpec spec = **found;
  spec.seed = MixSeed(spec.seed, seed);
  return spec;
}

isobar::Bytes PlainColumns(isobar::ByteSpan data, size_t width,
                           uint64_t mask) {
  const size_t n = data.size() / width;
  isobar::Bytes out;
  for (size_t j = 0; j < width; ++j) {
    if ((mask >> j & 1) == 0) continue;
    for (size_t i = 0; i < n; ++i) out.push_back(data[i * width + j]);
  }
  return out;
}

uint64_t ExpectedChunks(uint64_t elements, uint64_t chunk_elements) {
  return (elements + chunk_elements - 1) / chunk_elements;
}

std::string CheckChunkCount(isobar::ByteSpan container, uint64_t elements,
                            uint64_t chunk_elements) {
  size_t offset = 0;
  auto header = isobar::container::ParseHeader(container, &offset);
  if (!header.ok()) return "header: " + header.status().ToString();
  auto index = isobar::container::ParseFooter(container, *header);
  if (!index.ok()) return "footer: " + index.status().ToString();
  const uint64_t want = ExpectedChunks(elements, chunk_elements);
  if (index->entries.size() != want || index->element_count != elements) {
    return "footer holds " + std::to_string(index->entries.size()) +
           " chunks of " + std::to_string(index->element_count) +
           " elements, expected " + std::to_string(want) + " of " +
           std::to_string(elements);
  }
  return "";
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

// Seconds covered by the union of `spans`.
double BusySeconds(std::vector<std::pair<int64_t, int64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  int64_t busy = 0;
  int64_t open_start = 0;
  int64_t open_end = -1;
  for (const auto& [start, end] : spans) {
    if (start > open_end) {
      if (open_end >= 0) busy += open_end - open_start;
      open_start = start;
      open_end = end;
    } else {
      open_end = std::max(open_end, end);
    }
  }
  if (open_end >= 0) busy += open_end - open_start;
  return static_cast<double>(busy) / 1e9;
}

}  // namespace

double RoundMedianMBps(const std::vector<Op>& ops, OpKind kind) {
  std::map<uint64_t, std::pair<uint64_t, std::vector<std::pair<int64_t, int64_t>>>>
      rounds;
  for (const Op& op : ops) {
    if (op.kind != kind) continue;
    auto& [bytes, spans] = rounds[op.round];
    bytes += op.bytes;
    spans.emplace_back(op.start_ns, op.end_ns);
  }
  std::vector<double> mbps;
  for (auto& [round, tally] : rounds) {
    const double busy = BusySeconds(std::move(tally.second));
    if (busy > 0.0) mbps.push_back(static_cast<double>(tally.first) / 1e6 / busy);
  }
  return Median(mbps);
}

double PeakRssMB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

}  // namespace perfbench
