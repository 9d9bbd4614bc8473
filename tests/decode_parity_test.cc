// Read-path parity oracle: every read entry point (Decompress,
// DecompressRange, DecompressColumns and the IsobarStreamReader loop),
// over batch and streamed containers of both format versions, clean and
// under six kinds of damage, for every ChunkErrorPolicy at one and four
// decode threads. Each outcome is reduced to a canonical string — the
// CRC-32C of the output, the status code and message, and every
// SalvageReport field except the flight recorder — and the table below
// pins a CRC-32C of those strings per case. The table was recorded from
// the three separate read bodies that preceded the shared decode planner,
// so any change in bytes, errors or salvage accounting shows here. On a
// mismatch the test prints the whole recomputed table, ready to paste.
// Record offsets enter the error messages, so the table assumes the
// classic zlib deflate output (1.2.13 and 1.3.1 agree).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/container.h"
#include "core/isobar.h"
#include "core/stream.h"
#include "datagen/registry.h"
#include "io/fault_injection.h"
#include "io/sink.h"
#include "util/crc32c.h"

namespace isobar {
namespace {

constexpr uint64_t kChunkElements = 12288;
constexpr uint64_t kTotalElements = 3 * kChunkElements + 1500;  // Short tail.

enum class Kind { kV1Batch, kV2Batch, kV2Stream, kV1Stream };

Bytes MakeContainer(Kind kind, const Dataset& dataset) {
  CompressOptions options;
  options.chunk_elements = kChunkElements;
  options.num_threads = 1;
  options.eupa.forced_codec = CodecId::kZlib;
  const bool v1 = kind == Kind::kV1Batch || kind == Kind::kV1Stream;
  options.container_version = v1 ? container::kVersionV1 : container::kVersion;
  // Mix the solver layouts so both the strided and the contiguous plane
  // projections run.
  options.eupa.forced_linearization =
      kind == Kind::kV2Batch || kind == Kind::kV1Stream ? Linearization::kColumn
                                                        : Linearization::kRow;
  if (kind == Kind::kV1Batch || kind == Kind::kV2Batch) {
    auto compressed =
        IsobarCompressor(options).Compress(dataset.bytes(), dataset.width());
    EXPECT_TRUE(compressed.ok()) << compressed.status().ToString();
    return *compressed;
  }
  Bytes out;
  MemorySink sink(&out);
  IsobarStreamWriter writer(options, dataset.width(), &sink);
  EXPECT_TRUE(writer.Append(dataset.bytes()).ok());
  EXPECT_TRUE(writer.Finish().ok());
  return out;
}

// Container offsets of each record's chunk header, from a clean container.
std::vector<size_t> RecordOffsets(const Bytes& bytes) {
  std::vector<size_t> offsets;
  size_t offset = 0;
  auto header = container::ParseHeader(bytes, &offset);
  EXPECT_TRUE(header.ok());
  while (offsets.size() < 4) {
    offsets.push_back(offset);
    auto chunk = container::ParseChunkHeader(bytes, &offset);
    EXPECT_TRUE(chunk.ok());
    offset += chunk->compressed_size + chunk->raw_size;
  }
  return offsets;
}

bool HasFooter(Kind kind) {
  return kind == Kind::kV2Batch || kind == Kind::kV2Stream;
}

// The damage kinds. Footer damage applies only to containers that carry
// a footer.
const char* const kDamages[] = {"none",       "payload", "framing",
                                "elements",   "trailer", "index_entry"};

Bytes Damage(const Bytes& clean, const std::string& damage) {
  Bytes bytes = clean;
  const std::vector<size_t> records = RecordOffsets(clean);
  if (damage == "payload") {
    // A flip in the middle of chunk 1's solver section, which the
    // solver's framing or the chunk CRC catches.
    size_t offset = records[1];
    auto chunk = container::ParseChunkHeader(clean, &offset);
    EXPECT_TRUE(chunk.ok());
    FlipBits(&bytes, offset + chunk->compressed_size / 2, 0x20);
  } else if (damage == "framing") {
    // Chunk 2's section sizes run past the buffer: framing destroyed.
    SmashBytes(&bytes, records[2] + 22, 16, 0xEE);
  } else if (damage == "elements") {
    // Chunk 1 over-declares its element count; its sections still delimit.
    SmashBytes(&bytes, records[1], 8, 0xEE);
  } else if (damage == "trailer") {
    // The trailer's chunk-count field, caught by the trailer CRC.
    FlipBits(&bytes, bytes.size() - container::kFooterTrailerSize, 0x04);
  } else if (damage == "index_entry") {
    // Entry 1 points one byte past its record; both footer CRCs are
    // resealed, so the footer validates and the entry lies.
    const size_t payload_end =
        bytes.size() - container::FooterBytes(records.size());
    uint8_t* entry = bytes.data() + payload_end + container::kIndexEntrySize;
    StoreLE64(entry, LoadLE64(entry) + 1);
    uint8_t* trailer =
        bytes.data() + bytes.size() - container::kFooterTrailerSize;
    StoreLE32(trailer + 24,
              crc32c::Extend(0, bytes.data() + payload_end,
                             records.size() * container::kIndexEntrySize));
    StoreLE32(trailer + 28, crc32c::Extend(0, trailer, 28));
  }
  return bytes;
}

std::string Canonical(const Result<Bytes>& result, const SalvageReport& r) {
  std::string s;
  char buf[256];
  const uint32_t crc = result.ok() ? crc32c::Value(*result) : 0;
  const size_t size = result.ok() ? result->size() : 0;
  std::snprintf(buf, sizeof(buf), "out=%zu/%08x status=%d:", size, crc,
                static_cast<int>(result.status().code()));
  s += buf;
  s += result.status().message();
  std::snprintf(buf, sizeof(buf),
                " | total=%llu rec=%llu skip=%llu zero=%llu brec=%llu "
                "blost=%llu trunc=%d trail=%llu",
                static_cast<unsigned long long>(r.chunks_total),
                static_cast<unsigned long long>(r.chunks_recovered),
                static_cast<unsigned long long>(r.chunks_skipped),
                static_cast<unsigned long long>(r.chunks_zero_filled),
                static_cast<unsigned long long>(r.bytes_recovered),
                static_cast<unsigned long long>(r.bytes_lost),
                r.truncated_tail ? 1 : 0,
                static_cast<unsigned long long>(r.trailing_bytes));
  s += buf;
  for (const ChunkSalvageRecord& d : r.damaged) {
    std::snprintf(buf, sizeof(buf),
                  " [chunk=%llu off=%llu elems=%llu out=%llu lost=%llu "
                  "stage=%d action=%d code=%d:",
                  static_cast<unsigned long long>(d.chunk_index),
                  static_cast<unsigned long long>(d.byte_offset),
                  static_cast<unsigned long long>(d.element_count),
                  static_cast<unsigned long long>(d.output_offset),
                  static_cast<unsigned long long>(d.lost_bytes),
                  static_cast<int>(d.stage), static_cast<int>(d.action),
                  static_cast<int>(d.error.code()));
    s += buf;
    s += d.error.message();
    s += "]";
  }
  return s;
}

struct Read {
  const char* name;
  // 0 = Decompress, 1 = DecompressRange, 2 = DecompressColumns,
  // 3 = IsobarStreamReader loop.
  int entry;
  uint64_t first = 0, end = 0;
  uint64_t mask = 0;
};

// On this data the analyzer stores column 2 raw in the three full chunks
// (the short tail chunk is undetermined, so all its columns are
// solver-held); column 7, sign and exponent, is solver-held everywhere.
const Read kReads[] = {
    {"decompress", 0},
    {"range_all", 1, 0, kTotalElements},
    {"range_inside", 1, kChunkElements + 100, kChunkElements + 900},
    {"range_boundary", 1, 2 * kChunkElements - 50, 2 * kChunkElements + 50},
    {"range_tail", 1, 3 * kChunkElements + 200, kTotalElements},
    {"columns_raw", 2, 0, 0, 0x4},
    {"columns_solver", 2, 0, 0, 0x80},
    {"columns_all", 2, 0, 0, 0xFF},
    {"stream", 3},
};

std::string RunRead(const Bytes& bytes, const Read& read,
                    ChunkErrorPolicy policy, uint32_t threads) {
  SalvageReport report;
  DecompressOptions options;
  options.on_chunk_error = policy;
  options.num_threads = threads;
  options.salvage_report = &report;
  switch (read.entry) {
    case 0:
      return Canonical(IsobarCompressor::Decompress(bytes, options), report);
    case 1:
      return Canonical(IsobarCompressor::DecompressRange(bytes, read.first,
                                                         read.end, options),
                       report);
    case 2:
      return Canonical(
          IsobarCompressor::DecompressColumns(bytes, read.mask, options),
          report);
    default: {
      options.salvage_report = nullptr;
      IsobarStreamReader reader(bytes, options);
      Status status = reader.Init();
      Bytes out;
      Bytes chunk;
      while (status.ok()) {
        auto more = reader.NextChunk(&chunk);
        if (!more.ok()) {
          status = more.status();
        } else if (!*more) {
          break;
        } else {
          out.insert(out.end(), chunk.begin(), chunk.end());
        }
      }
      return status.ok() ? Canonical(std::move(out), reader.salvage_report())
                         : Canonical(status, reader.salvage_report());
    }
  }
}

// Recorded table: case "<container>/<damage>/<read>" -> CRC-32C of the
// three per-policy canonical strings (kFail, kSkip, kZeroFill), each
// followed by a newline.
const std::map<std::string, uint32_t>& Expected() {
  static const auto* table = new std::map<std::string, uint32_t>{
      {"v1batch/none/decompress", 0xa63a2b8cu},
      {"v1batch/none/range_all", 0xa63a2b8cu},
      {"v1batch/none/range_inside", 0xe8593703u},
      {"v1batch/none/range_boundary", 0x495e4d22u},
      {"v1batch/none/range_tail", 0xf8f4808cu},
      {"v1batch/none/columns_raw", 0x14f50a2fu},
      {"v1batch/none/columns_solver", 0x05cd1028u},
      {"v1batch/none/columns_all", 0x381d6156u},
      {"v1batch/none/stream", 0xa63a2b8cu},
      {"v1batch/payload/decompress", 0xcbe0952fu},
      {"v1batch/payload/range_all", 0x43f8c6c5u},
      {"v1batch/payload/range_inside", 0x6e50419au},
      {"v1batch/payload/range_boundary", 0xdaf9e2c3u},
      {"v1batch/payload/range_tail", 0xf8f4808cu},
      {"v1batch/payload/columns_raw", 0x14f50a2fu},
      {"v1batch/payload/columns_solver", 0x93d76c56u},
      {"v1batch/payload/columns_all", 0x8260f080u},
      {"v1batch/payload/stream", 0x177d055du},
      {"v1batch/framing/decompress", 0x3b0a5383u},
      {"v1batch/framing/range_all", 0x566fec56u},
      {"v1batch/framing/range_inside", 0xe8593703u},
      {"v1batch/framing/range_boundary", 0x7b03560eu},
      {"v1batch/framing/range_tail", 0x77b9a162u},
      {"v1batch/framing/columns_raw", 0xf5e71740u},
      {"v1batch/framing/columns_solver", 0x3fd6b90du},
      {"v1batch/framing/columns_all", 0xb0f12c8bu},
      {"v1batch/framing/stream", 0xca4f5bfbu},
      {"v1batch/elements/decompress", 0xc8d04dbau},
      {"v1batch/elements/range_all", 0xc5ea3fcdu},
      {"v1batch/elements/range_inside", 0x6edfc7f8u},
      {"v1batch/elements/range_boundary", 0x61b914e1u},
      {"v1batch/elements/range_tail", 0x6635032eu},
      {"v1batch/elements/columns_raw", 0x74f35f33u},
      {"v1batch/elements/columns_solver", 0x00e332afu},
      {"v1batch/elements/columns_all", 0x42d15eadu},
      {"v1batch/elements/stream", 0xe772a48eu},
      {"v2batch/none/decompress", 0xa63a2b8cu},
      {"v2batch/none/range_all", 0xa63a2b8cu},
      {"v2batch/none/range_inside", 0xe8593703u},
      {"v2batch/none/range_boundary", 0x495e4d22u},
      {"v2batch/none/range_tail", 0xf8f4808cu},
      {"v2batch/none/columns_raw", 0x14f50a2fu},
      {"v2batch/none/columns_solver", 0x05cd1028u},
      {"v2batch/none/columns_all", 0x381d6156u},
      {"v2batch/none/stream", 0xa63a2b8cu},
      {"v2batch/payload/decompress", 0xabf2f3b7u},
      {"v2batch/payload/range_all", 0x23eaa05du},
      {"v2batch/payload/range_inside", 0x2a321c40u},
      {"v2batch/payload/range_boundary", 0x8fa9ea81u},
      {"v2batch/payload/range_tail", 0xf8f4808cu},
      {"v2batch/payload/columns_raw", 0x14f50a2fu},
      {"v2batch/payload/columns_solver", 0x2a294dcbu},
      {"v2batch/payload/columns_all", 0xe2729618u},
      {"v2batch/payload/stream", 0x117a43b8u},
      {"v2batch/framing/decompress", 0x59c02b90u},
      {"v2batch/framing/range_all", 0x3dbef65au},
      {"v2batch/framing/range_inside", 0xe8593703u},
      {"v2batch/framing/range_boundary", 0xae4dbdbau},
      {"v2batch/framing/range_tail", 0xf8f4808cu},
      {"v2batch/framing/columns_raw", 0xaabbe26du},
      {"v2batch/framing/columns_solver", 0x608a4c20u},
      {"v2batch/framing/columns_all", 0xbc7910f0u},
      {"v2batch/framing/stream", 0x7dc9822fu},
      {"v2batch/elements/decompress", 0xde2f5dc6u},
      {"v2batch/elements/range_all", 0x308a394cu},
      {"v2batch/elements/range_inside", 0x1d9a04d2u},
      {"v2batch/elements/range_boundary", 0x1f074b4fu},
      {"v2batch/elements/range_tail", 0xf8f4808cu},
      {"v2batch/elements/columns_raw", 0x5db53d72u},
      {"v2batch/elements/columns_solver", 0x29a550eeu},
      {"v2batch/elements/columns_all", 0x9113329cu},
      {"v2batch/elements/stream", 0xa1849863u},
      {"v2batch/trailer/decompress", 0xbb2526f0u},
      {"v2batch/trailer/range_all", 0x523471deu},
      {"v2batch/trailer/range_inside", 0x6c409c8cu},
      {"v2batch/trailer/range_boundary", 0xbc3f0f38u},
      {"v2batch/trailer/range_tail", 0x3432768fu},
      {"v2batch/trailer/columns_raw", 0x71e12841u},
      {"v2batch/trailer/columns_solver", 0x11ce3c89u},
      {"v2batch/trailer/columns_all", 0x9370cfceu},
      {"v2batch/trailer/stream", 0xbb2526f0u},
      {"v2batch/index_entry/decompress", 0xa63a2b8cu},
      {"v2batch/index_entry/range_all", 0x9a941751u},
      {"v2batch/index_entry/range_inside", 0xd16dc89eu},
      {"v2batch/index_entry/range_boundary", 0xe7401fcbu},
      {"v2batch/index_entry/range_tail", 0xf8f4808cu},
      {"v2batch/index_entry/columns_raw", 0x14f50a2fu},
      {"v2batch/index_entry/columns_solver", 0x05cd1028u},
      {"v2batch/index_entry/columns_all", 0x381d6156u},
      {"v2batch/index_entry/stream", 0xa63a2b8cu},
      {"v2stream/none/decompress", 0xa63a2b8cu},
      {"v2stream/none/range_all", 0xa63a2b8cu},
      {"v2stream/none/range_inside", 0xe8593703u},
      {"v2stream/none/range_boundary", 0x495e4d22u},
      {"v2stream/none/range_tail", 0xf8f4808cu},
      {"v2stream/none/columns_raw", 0x14f50a2fu},
      {"v2stream/none/columns_solver", 0x05cd1028u},
      {"v2stream/none/columns_all", 0x381d6156u},
      {"v2stream/none/stream", 0xa63a2b8cu},
      {"v2stream/payload/decompress", 0xcbe0952fu},
      {"v2stream/payload/range_all", 0x43f8c6c5u},
      {"v2stream/payload/range_inside", 0x6e50419au},
      {"v2stream/payload/range_boundary", 0xdaf9e2c3u},
      {"v2stream/payload/range_tail", 0xf8f4808cu},
      {"v2stream/payload/columns_raw", 0x14f50a2fu},
      {"v2stream/payload/columns_solver", 0x93d76c56u},
      {"v2stream/payload/columns_all", 0x8260f080u},
      {"v2stream/payload/stream", 0x177d055du},
      {"v2stream/framing/decompress", 0x3b0a5383u},
      {"v2stream/framing/range_all", 0xb9ef55bfu},
      {"v2stream/framing/range_inside", 0xe8593703u},
      {"v2stream/framing/range_boundary", 0xafff42f0u},
      {"v2stream/framing/range_tail", 0xf8f4808cu},
      {"v2stream/framing/columns_raw", 0xf5e71740u},
      {"v2stream/framing/columns_solver", 0x3fd6b90du},
      {"v2stream/framing/columns_all", 0xb0f12c8bu},
      {"v2stream/framing/stream", 0xca4f5bfbu},
      {"v2stream/elements/decompress", 0xc8d04dbau},
      {"v2stream/elements/range_all", 0x0b97f01cu},
      {"v2stream/elements/range_inside", 0xf16d2586u},
      {"v2stream/elements/range_boundary", 0x4b345b03u},
      {"v2stream/elements/range_tail", 0xf8f4808cu},
      {"v2stream/elements/columns_raw", 0x74f35f33u},
      {"v2stream/elements/columns_solver", 0x00e332afu},
      {"v2stream/elements/columns_all", 0x42d15eadu},
      {"v2stream/elements/stream", 0xe772a48eu},
      {"v2stream/trailer/decompress", 0xe3f134c4u},
      {"v2stream/trailer/range_all", 0x523471deu},
      {"v2stream/trailer/range_inside", 0x6c409c8cu},
      {"v2stream/trailer/range_boundary", 0xbc3f0f38u},
      {"v2stream/trailer/range_tail", 0x3432768fu},
      {"v2stream/trailer/columns_raw", 0xe3b77740u},
      {"v2stream/trailer/columns_solver", 0x59ca1954u},
      {"v2stream/trailer/columns_all", 0xc609c4dfu},
      {"v2stream/trailer/stream", 0x31500e41u},
      {"v2stream/index_entry/decompress", 0xa63a2b8cu},
      {"v2stream/index_entry/range_all", 0x19a13b61u},
      {"v2stream/index_entry/range_inside", 0x9711ac7du},
      {"v2stream/index_entry/range_boundary", 0xafd90c65u},
      {"v2stream/index_entry/range_tail", 0xf8f4808cu},
      {"v2stream/index_entry/columns_raw", 0x14f50a2fu},
      {"v2stream/index_entry/columns_solver", 0x05cd1028u},
      {"v2stream/index_entry/columns_all", 0x381d6156u},
      {"v2stream/index_entry/stream", 0xa63a2b8cu},
      {"v1stream/none/decompress", 0xa63a2b8cu},
      {"v1stream/none/range_all", 0xa63a2b8cu},
      {"v1stream/none/range_inside", 0xe8593703u},
      {"v1stream/none/range_boundary", 0x495e4d22u},
      {"v1stream/none/range_tail", 0xf8f4808cu},
      {"v1stream/none/columns_raw", 0x14f50a2fu},
      {"v1stream/none/columns_solver", 0x05cd1028u},
      {"v1stream/none/columns_all", 0x381d6156u},
      {"v1stream/none/stream", 0xa63a2b8cu},
      {"v1stream/payload/decompress", 0xabf2f3b7u},
      {"v1stream/payload/range_all", 0x23eaa05du},
      {"v1stream/payload/range_inside", 0x2a321c40u},
      {"v1stream/payload/range_boundary", 0x8fa9ea81u},
      {"v1stream/payload/range_tail", 0xf8f4808cu},
      {"v1stream/payload/columns_raw", 0x14f50a2fu},
      {"v1stream/payload/columns_solver", 0x2a294dcbu},
      {"v1stream/payload/columns_all", 0xe2729618u},
      {"v1stream/payload/stream", 0x117a43b8u},
      {"v1stream/framing/decompress", 0xc36f08a7u},
      {"v1stream/framing/range_all", 0x95a114c5u},
      {"v1stream/framing/range_inside", 0xe8593703u},
      {"v1stream/framing/range_boundary", 0x7839c046u},
      {"v1stream/framing/range_tail", 0xd69a0ba1u},
      {"v1stream/framing/columns_raw", 0xc33b077fu},
      {"v1stream/framing/columns_solver", 0xb8bf5b2au},
      {"v1stream/framing/columns_all", 0xc2bbb623u},
      {"v1stream/framing/stream", 0x7dc9822fu},
      {"v1stream/elements/decompress", 0xde2f5dc6u},
      {"v1stream/elements/range_all", 0x162853fcu},
      {"v1stream/elements/range_inside", 0x4c8dbb7eu},
      {"v1stream/elements/range_boundary", 0xbfec93cbu},
      {"v1stream/elements/range_tail", 0x966e8038u},
      {"v1stream/elements/columns_raw", 0x5db53d72u},
      {"v1stream/elements/columns_solver", 0x29a550eeu},
      {"v1stream/elements/columns_all", 0x9113329cu},
      {"v1stream/elements/stream", 0xa1849863u},
  };
  return *table;
}

void CheckContainer(Kind kind, const char* label) {
  auto spec = FindDatasetSpec("gts_phi_l");
  ASSERT_TRUE(spec.ok());
  auto dataset = GenerateDataset(**spec, kTotalElements);
  ASSERT_TRUE(dataset.ok());
  ASSERT_EQ(dataset->width(), 8u);
  const Bytes clean = MakeContainer(kind, *dataset);

  std::vector<std::string> table;
  bool mismatch = false;
  for (const char* damage : kDamages) {
    const std::string damage_name = damage;
    if ((damage_name == "trailer" || damage_name == "index_entry") &&
        !HasFooter(kind)) {
      continue;
    }
    const Bytes bytes = Damage(clean, damage_name);
    for (const Read& read : kReads) {
      const std::string name =
          std::string(label) + "/" + damage_name + "/" + read.name;
      std::string joined;
      for (const ChunkErrorPolicy policy :
           {ChunkErrorPolicy::kFail, ChunkErrorPolicy::kSkip,
            ChunkErrorPolicy::kZeroFill}) {
        const std::string serial = RunRead(bytes, read, policy, 1);
        const std::string pooled = RunRead(bytes, read, policy, 4);
        EXPECT_EQ(serial, pooled)
            << name << " policy " << static_cast<int>(policy);
        joined += serial + "\n";
      }
      const uint32_t digest = crc32c::Extend(
          0, reinterpret_cast<const uint8_t*>(joined.data()), joined.size());
      char line[160];
      std::snprintf(line, sizeof(line), "      {\"%s\", 0x%08xu},",
                    name.c_str(), digest);
      table.push_back(line);
      const auto it = Expected().find(name);
      if (it == Expected().end() || it->second != digest) {
        mismatch = true;
        ADD_FAILURE() << name << ": digest 0x" << std::hex << digest
                      << " differs from the recorded table\n"
                      << joined;
      }
    }
  }
  if (mismatch) {
    std::printf("recomputed table rows for %s:\n", label);
    for (const std::string& line : table) std::printf("%s\n", line.c_str());
  }
}

TEST(DecodeParityTest, V1Batch) { CheckContainer(Kind::kV1Batch, "v1batch"); }
TEST(DecodeParityTest, V2Batch) { CheckContainer(Kind::kV2Batch, "v2batch"); }
TEST(DecodeParityTest, V2Stream) {
  CheckContainer(Kind::kV2Stream, "v2stream");
}
TEST(DecodeParityTest, V1Stream) {
  CheckContainer(Kind::kV1Stream, "v1stream");
}

}  // namespace
}  // namespace isobar
