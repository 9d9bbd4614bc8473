#include "core/chunk_codec.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "core/partitioner.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/timeline.h"
#include "telemetry/trace_export.h"
#include "util/crc32c.h"
#include "util/stopwatch.h"

namespace isobar {
namespace {

/// Flight-recorder window embedded into a damaged SalvageReport: enough
/// recent events to cover several chunks' worth of pipeline activity
/// without bloating the report.
constexpr size_t kFlightRecorderEvents = 256;

}  // namespace

Result<EupaDecision> ChoosePipeline(const CompressOptions& options,
                                    ByteSpan probe, ByteSpan data,
                                    size_t width, double* analysis_seconds) {
  // The ISOBAR_FORCE_CODEC CI hook pins auto-selected pipelines to one
  // solver; explicit caller overrides always win.
  EupaOptions eupa = options.eupa;
  if (!eupa.forced_codec) eupa.forced_codec = ForcedCodecFromEnv();
  EupaDecision decision;
  decision.preference = eupa.preference;
  if (eupa.forced_codec && eupa.forced_linearization) {
    decision.codec = *eupa.forced_codec;
    decision.linearization = *eupa.forced_linearization;
  } else if (!data.empty()) {
    // The analyzer verdict for the sampling region determines which bytes
    // the candidates are measured on.
    Stopwatch analysis_timer;
    ISOBAR_ASSIGN_OR_RETURN(AnalysisResult verdict,
                            Analyzer(options.analyzer).Analyze(probe, width));
    const uint64_t mask =
        verdict.improvable() ? verdict.compressible_mask : FullMask(width);
    ISOBAR_ASSIGN_OR_RETURN(decision,
                            EupaSelector(eupa).Select(data, width, mask));
    *analysis_seconds += analysis_timer.ElapsedSeconds();
  } else {
    // Nothing to measure; fall back to the configured defaults.
    if (eupa.forced_codec) decision.codec = *eupa.forced_codec;
    if (eupa.forced_linearization) {
      decision.linearization = *eupa.forced_linearization;
    }
  }
  return decision;
}

uint64_t BeginPipelineTrace(const EupaDecision& decision, size_t width) {
  auto& recorder = telemetry::TraceRecorder::Global();
  if (!recorder.enabled()) return 0;
  const uint64_t id = recorder.BeginPipeline(
      std::string(CodecIdToString(decision.codec)),
      std::string(LinearizationToString(decision.linearization)),
      std::string(PreferenceToString(decision.preference)), width);
  for (const CandidateEvaluation& eval : decision.evaluations) {
    telemetry::CandidateTrace candidate;
    candidate.codec = std::string(CodecIdToString(eval.codec));
    candidate.linearization =
        std::string(LinearizationToString(eval.linearization));
    candidate.ratio = eval.ratio;
    candidate.throughput_mbps = eval.throughput_mbps;
    recorder.RecordCandidate(id, std::move(candidate));
  }
  return id;
}

Status EncodeChunk(const Analyzer& analyzer, const Codec& codec,
                   Linearization linearization, ByteSpan chunk, size_t width,
                   Bytes* out, CompressionStats* stats,
                   uint64_t trace_pipeline_id,
                   telemetry::ChunkTrace* trace_out, ScratchArena* arena,
                   uint64_t chunk_ordinal, Linearization raw_linearization) {
  const uint64_t full_mask = FullMask(width);
  telemetry::ScopedSpan chunk_span("compress.chunk", trace_pipeline_id,
                                   chunk_ordinal + 1);
  const size_t record_base = out->size();

  Stopwatch analysis_timer;
  ISOBAR_ASSIGN_OR_RETURN(AnalysisResult analysis,
                          analyzer.Analyze(chunk, width));
  const double analysis_seconds = analysis_timer.ElapsedSeconds();
  if (stats != nullptr) {
    stats->analysis_seconds += analysis_seconds;
    if (analysis.improvable()) {
      ++stats->improvable_chunks;
      stats->improvable = true;
    }
    // mean_htc_fraction is maintained as a running mean over chunks.
    stats->mean_htc_fraction +=
        (analysis.htc_byte_fraction() - stats->mean_htc_fraction) /
        static_cast<double>(stats->chunk_count + 1);
    ++stats->chunk_count;
  }

  container::ChunkHeader chunk_header;
  chunk_header.element_count = chunk.size() / width;
  chunk_header.compressible_mask = analysis.compressible_mask;
  chunk_header.crc32c = crc32c::Value(chunk);

  // Arena-backed temporaries: with a per-worker arena these three vectors
  // reach steady-state capacity after a few chunks and stop allocating.
  Bytes local_gathered;
  Bytes local_raw;
  Bytes local_compressed;
  Bytes& gathered =
      arena != nullptr ? arena->buffer(ScratchArena::kGathered)
                       : local_gathered;
  Bytes& raw = arena != nullptr ? arena->buffer(ScratchArena::kRaw)
                                : local_raw;
  Bytes& compressed =
      arena != nullptr ? arena->buffer(ScratchArena::kCompressed)
                       : local_compressed;

  ByteSpan raw_section;
  double partition_seconds = 0.0;
  if (analysis.improvable()) {
    Stopwatch partition_timer;
    ISOBAR_RETURN_NOT_OK(PartitionDataInto(chunk, width,
                                           analysis.compressible_mask,
                                           linearization, &gathered, &raw,
                                           raw_linearization));
    partition_seconds = partition_timer.ElapsedSeconds();
    raw_section = ByteSpan(raw);
  } else {
    // Undetermined (Alg. 1 lines 2-3): the whole chunk goes to the
    // solver, still in the EUPA-chosen linearization.
    chunk_header.flags |= container::kChunkUndetermined;
    telemetry::ScopedSpan gather_span("chunk.partition", trace_pipeline_id,
                                      chunk_ordinal + 1);
    Stopwatch partition_timer;
    ISOBAR_RETURN_NOT_OK(
        GatherColumns(chunk, width, full_mask, linearization, &gathered));
    partition_seconds = partition_timer.ElapsedSeconds();
  }
  if (stats != nullptr) stats->partition_seconds += partition_seconds;

  double codec_seconds = 0.0;
  {
    telemetry::ScopedSpan solve_span("chunk.solve", trace_pipeline_id,
                                     chunk_ordinal + 1);
    Stopwatch codec_timer;
    compressed.clear();  // Arena slot may hold the previous chunk's output.
    ISOBAR_RETURN_NOT_OK(codec.Compress(gathered, &compressed));
    codec_seconds = codec_timer.ElapsedSeconds();
  }
  if (stats != nullptr) stats->codec_seconds += codec_seconds;

  const bool stored_raw = compressed.size() >= gathered.size();
  if (stored_raw) {
    // The solver expanded its input (possible on pure noise): store the
    // gathered bytes verbatim so the container never grows the section.
    chunk_header.flags |= container::kChunkStoredRaw;
    chunk_header.compressed_size = gathered.size();
    chunk_header.raw_size = raw_section.size();
    container::AppendChunkHeader(chunk_header, out);
    out->insert(out->end(), gathered.begin(), gathered.end());
  } else {
    chunk_header.compressed_size = compressed.size();
    chunk_header.raw_size = raw_section.size();
    container::AppendChunkHeader(chunk_header, out);
    out->insert(out->end(), compressed.begin(), compressed.end());
  }
  out->insert(out->end(), raw_section.begin(), raw_section.end());

  static telemetry::Counter& chunks_encoded =
      telemetry::GetCounter("pipeline.chunks_encoded");
  static telemetry::Counter& input_bytes =
      telemetry::GetCounter("pipeline.chunk_input_bytes");
  static telemetry::Counter& output_bytes =
      telemetry::GetCounter("pipeline.chunk_output_bytes");
  chunks_encoded.Increment();
  input_bytes.Add(chunk.size());
  output_bytes.Add(out->size() - record_base);

  if (arena != nullptr) arena->PublishStats();

  auto& recorder = telemetry::TraceRecorder::Global();
  if (trace_pipeline_id != 0 && recorder.enabled()) {
    telemetry::ChunkTrace trace;
    trace.element_count = chunk_header.element_count;
    trace.input_bytes = chunk.size();
    trace.output_bytes = out->size() - record_base;
    trace.improvable = analysis.improvable();
    trace.stored_raw = stored_raw;
    trace.compressible_mask = analysis.compressible_mask;
    trace.htc_fraction = analysis.htc_byte_fraction();
    trace.solver_input_bytes = gathered.size();
    trace.solver_output_bytes = chunk_header.compressed_size;
    trace.raw_bytes = raw_section.size();
    trace.analysis_seconds = analysis_seconds;
    trace.partition_seconds = partition_seconds;
    trace.codec_seconds = codec_seconds;
    if (trace_out != nullptr) {
      // Parallel pipeline: hand the record to the caller, whose writer
      // stitches worker traces back into chunk order.
      *trace_out = std::move(trace);
    } else {
      recorder.RecordChunk(trace_pipeline_id, std::move(trace));
    }
  }
  return Status::OK();
}

Status AnnotateChunkError(const Status& status, uint64_t chunk_index,
                          uint64_t byte_offset) {
  if (status.ok()) return status;
  return Status(status.code(),
                "chunk " + std::to_string(chunk_index) +
                    " (container offset " + std::to_string(byte_offset) +
                    "): " + status.message());
}

Status ResolveChunkIndex(ByteSpan container_bytes, bool salvage,
                         container::Header* header,
                         ChunkIndexResolution* resolution) {
  resolution->payload_end = container_bytes.size();
  if (header->version < container::kVersion) return Status::OK();
  static telemetry::Counter& index_hits =
      telemetry::GetCounter("pipeline.index_hits");
  static telemetry::Counter& index_fallbacks =
      telemetry::GetCounter("pipeline.index_fallbacks");
  auto parsed = container::ParseFooter(container_bytes, *header);
  if (!parsed.ok()) {
    if (!salvage) return parsed.status();
    index_fallbacks.Increment();
    return Status::OK();
  }
  index_hits.Increment();
  resolution->have_index = true;
  resolution->index = std::move(*parsed);
  resolution->payload_end = resolution->index.payload_end;
  // ParseFooter checked that counted totals agree, so only the streamed
  // writer's sentinels actually change here.
  header->element_count = resolution->index.element_count;
  header->chunk_count = resolution->index.entries.size();
  return Status::OK();
}

void RecordSalvageEntry(SalvageReport* report, uint64_t chunk_index,
                        uint64_t byte_offset, uint64_t element_count,
                        ChunkFailureStage stage, ChunkErrorPolicy action,
                        const Status& error, uint64_t output_offset,
                        uint64_t lost_bytes) {
  if (action != ChunkErrorPolicy::kFail) {
    static telemetry::Counter& salvaged =
        telemetry::GetCounter("pipeline.chunks_salvaged");
    static telemetry::Counter& zero_filled =
        telemetry::GetCounter("pipeline.chunks_zero_filled");
    salvaged.Increment();
    if (action == ChunkErrorPolicy::kZeroFill) zero_filled.Increment();
  }
  if (report == nullptr) return;
  ChunkSalvageRecord record;
  record.chunk_index = chunk_index;
  record.byte_offset = byte_offset;
  record.element_count = element_count;
  record.output_offset = output_offset;
  record.lost_bytes = lost_bytes;
  record.stage = stage;
  record.action = action;
  record.error = error;
  report->damaged.push_back(std::move(record));
  if (action == ChunkErrorPolicy::kZeroFill) {
    ++report->chunks_zero_filled;
  } else if (action == ChunkErrorPolicy::kSkip) {
    ++report->chunks_skipped;
  }
  report->bytes_lost += lost_bytes;
}

void CaptureFlightRecorder(SalvageReport* report) {
  if (report == nullptr || report->clean() ||
      !telemetry::Timeline::Enabled()) {
    return;
  }
  report->flight_recorder =
      telemetry::Timeline::Global().SnapshotRecent(kFlightRecorderEvents);
}

void MergeChunkStats(const CompressionStats& chunk, CompressionStats* total) {
  total->analysis_seconds += chunk.analysis_seconds;
  total->partition_seconds += chunk.partition_seconds;
  total->codec_seconds += chunk.codec_seconds;
  total->improvable_chunks += chunk.improvable_chunks;
  if (chunk.improvable) total->improvable = true;
  // Weighted running mean: a contribution of k chunks moves the total by
  // k/(n+k) of the gap. With k == 1 this is exactly the serial per-chunk
  // update, so parallel merges stay bit-identical to the serial path.
  if (chunk.chunk_count > 0) {
    total->mean_htc_fraction +=
        (chunk.mean_htc_fraction - total->mean_htc_fraction) *
        static_cast<double>(chunk.chunk_count) /
        static_cast<double>(total->chunk_count + chunk.chunk_count);
  }
  total->chunk_count += chunk.chunk_count;
}

namespace {

/// Validates a record's section geometry against its header: returns the
/// mask of the solver-held columns (all of them for an undetermined chunk)
/// after checking that it fits the element width and that the raw
/// section holds exactly the remaining columns.
Status CheckSections(const container::ChunkHeader& chunk_header,
                     size_t width, uint64_t* solver_mask) {
  const uint64_t full_mask = FullMask(width);
  const bool undetermined =
      (chunk_header.flags & container::kChunkUndetermined) != 0;
  const uint64_t mask =
      undetermined ? full_mask : chunk_header.compressible_mask;
  if ((mask & ~full_mask) != 0) {
    return Status::Corruption("container: chunk mask exceeds element width");
  }
  const size_t raw_width =
      width - static_cast<size_t>(PopcountMask(mask, width));
  if (chunk_header.raw_size != chunk_header.element_count * raw_width) {
    return Status::Corruption("container: raw section size mismatch");
  }
  *solver_mask = mask;
  return Status::OK();
}

/// The record's solver-held columns as packed bytes: a stored-raw section
/// is used in place, any other is solver-decoded into `*decoded`.
Status UnpackSolverSection(const container::ChunkHeader& chunk_header,
                           ByteSpan compressed_section, const Codec& codec,
                           size_t expected_packed, Bytes* decoded,
                           ByteSpan* packed, DecompressionStats* stats,
                           uint64_t chunk_ordinal) {
  telemetry::ScopedSpan decode_span("chunk.decode", 0, chunk_ordinal + 1);
  Stopwatch decode_timer;
  if (chunk_header.flags & container::kChunkStoredRaw) {
    if (compressed_section.size() != expected_packed) {
      return Status::Corruption("container: stored section size mismatch");
    }
    *packed = compressed_section;
  } else {
    decoded->clear();  // Arena slot may hold the previous chunk's output.
    ISOBAR_RETURN_NOT_OK(
        codec.Decompress(compressed_section, expected_packed, decoded));
    if (decoded->size() != expected_packed) {
      return Status::Corruption("container: packed section size mismatch");
    }
    *packed = ByteSpan(*decoded);
  }
  if (stats != nullptr) stats->decode_seconds += decode_timer.ElapsedSeconds();
  return Status::OK();
}

/// Rank of column `c` inside `mask`: how many selected columns precede it.
size_t ColumnRank(uint64_t mask, size_t c) {
  return static_cast<size_t>(
      __builtin_popcountll(mask & ((c == 0) ? 0ull : (~0ull >> (64 - c)))));
}

}  // namespace

Status DecodeChunkPayload(const container::ChunkHeader& chunk_header,
                          ByteSpan compressed_section, ByteSpan raw_section,
                          const Codec& codec, Linearization linearization,
                          size_t width, bool verify_checksums,
                          MutableByteSpan dest, DecompressionStats* stats,
                          ChunkFailureStage* failed_stage,
                          ScratchArena* arena, uint64_t chunk_ordinal,
                          Linearization raw_linearization) {
  if (failed_stage != nullptr) *failed_stage = ChunkFailureStage::kPayload;
  uint64_t mask = 0;
  ISOBAR_RETURN_NOT_OK(CheckSections(chunk_header, width, &mask));
  const uint64_t n = chunk_header.element_count;
  if (dest.size() != n * width) {
    return Status::Internal("chunk payload: destination size mismatch");
  }
  Bytes local_decoded;
  Bytes& decoded = arena != nullptr ? arena->buffer(ScratchArena::kDecoded)
                                    : local_decoded;
  ByteSpan packed;
  ISOBAR_RETURN_NOT_OK(UnpackSolverSection(
      chunk_header, compressed_section, codec,
      n * static_cast<size_t>(PopcountMask(mask, width)), &decoded, &packed,
      stats, chunk_ordinal));

  telemetry::ScopedSpan scatter_span("chunk.scatter", 0, chunk_ordinal + 1);
  Stopwatch scatter_timer;
  ISOBAR_RETURN_NOT_OK(
      ScatterColumns(packed, width, mask, linearization, dest));
  ISOBAR_RETURN_NOT_OK(ScatterColumns(raw_section, width,
                                      FullMask(width) & ~mask,
                                      raw_linearization, dest));

  if (verify_checksums) {
    const uint32_t crc = crc32c::Extend(0, dest.data(), dest.size());
    if (crc != chunk_header.crc32c) {
      static telemetry::Counter& crc_failures =
          telemetry::GetCounter("pipeline.checksum_failures");
      crc_failures.Increment();
      if (failed_stage != nullptr) *failed_stage = ChunkFailureStage::kChecksum;
      return Status::Corruption("container: chunk checksum mismatch");
    }
  }
  if (stats != nullptr) {
    // Checksum verification is part of the merge stage's bill: it touches
    // the same reconstructed bytes while they are still cache-hot.
    stats->scatter_seconds += scatter_timer.ElapsedSeconds();
    ++stats->chunk_count;
  }

  if (arena != nullptr) arena->PublishStats();

  static telemetry::Counter& chunks_decoded =
      telemetry::GetCounter("pipeline.chunks_decoded");
  chunks_decoded.Increment();
  return Status::OK();
}

Status ProjectChunkColumns(const container::ChunkHeader& chunk_header,
                           ByteSpan compressed_section, ByteSpan raw_section,
                           const Codec& codec, Linearization linearization,
                           size_t width, uint64_t column_mask,
                           uint8_t* planes, size_t plane_stride,
                           uint64_t* served_mask, DecompressionStats* stats,
                           ScratchArena* arena, uint64_t chunk_ordinal,
                           Linearization raw_linearization) {
  static telemetry::Counter& planes_raw =
      telemetry::GetCounter("pipeline.column_planes_raw");
  static telemetry::Counter& planes_decoded =
      telemetry::GetCounter("pipeline.column_planes_decoded");
  *served_mask = 0;
  uint64_t mask = 0;
  ISOBAR_RETURN_NOT_OK(CheckSections(chunk_header, width, &mask));
  const size_t n = static_cast<size_t>(chunk_header.element_count);
  // Copies the requested `columns` out of a section holding the columns of
  // `section_mask` in layout `lin`: one memcpy per plane from a
  // column-major section, a strided gather from a row-major one.
  auto project = [&](ByteSpan section, uint64_t section_mask,
                     Linearization lin, uint64_t columns) {
    const size_t stride = static_cast<size_t>(PopcountMask(section_mask,
                                                           width));
    for (uint64_t rest = columns; rest != 0; rest &= rest - 1) {
      const size_t c = static_cast<size_t>(__builtin_ctzll(rest));
      const size_t r = ColumnRank(section_mask, c);
      uint8_t* dest = planes + ColumnRank(column_mask, c) * plane_stride;
      if (lin == Linearization::kColumn) {
        std::memcpy(dest, section.data() + r * n, n);
      } else {
        const uint8_t* from = section.data() + r;
        for (size_t i = 0; i < n; ++i) dest[i] = from[i * stride];
      }
    }
  };

  // Noise planes come straight off the raw section, with no solver work.
  const uint64_t raw_mask = FullMask(width) & ~mask;
  const uint64_t raw_columns = column_mask & raw_mask;
  project(raw_section, raw_mask, raw_linearization, raw_columns);
  planes_raw.Add(static_cast<uint64_t>(PopcountMask(raw_columns, width)));
  *served_mask = raw_columns;

  // Solver-held planes need the packed section materialized once.
  const uint64_t solver_columns = column_mask & mask;
  if (solver_columns != 0) {
    Bytes& decoded = arena->buffer(ScratchArena::kDecoded);
    ByteSpan packed;
    ISOBAR_RETURN_NOT_OK(UnpackSolverSection(
        chunk_header, compressed_section, codec,
        n * static_cast<size_t>(PopcountMask(mask, width)), &decoded, &packed,
        stats, chunk_ordinal));
    project(packed, mask, linearization, solver_columns);
    const bool stored_raw =
        (chunk_header.flags & container::kChunkStoredRaw) != 0;
    (stored_raw ? planes_raw : planes_decoded)
        .Add(static_cast<uint64_t>(PopcountMask(solver_columns, width)));
    *served_mask |= solver_columns;
  }
  if (stats != nullptr) ++stats->chunk_count;
  return Status::OK();
}

Status DecodeChunk(ByteSpan container_bytes, size_t* offset,
                   const Codec& codec, Linearization linearization,
                   size_t width, uint64_t max_elements, bool verify_checksums,
                   Bytes* out, DecompressionStats* stats,
                   uint64_t chunk_index, ChunkFailureStage* failed_stage,
                   container::ChunkHeader* header_out, ScratchArena* arena,
                   Linearization raw_linearization) {
  telemetry::ScopedSpan chunk_span("decompress.chunk", 0, chunk_index + 1);
  if (failed_stage != nullptr) *failed_stage = ChunkFailureStage::kHeader;
  const size_t record_offset = *offset;

  Stopwatch parse_timer;
  auto parsed = container::ParseChunkHeader(container_bytes, offset);
  if (!parsed.ok()) {
    return AnnotateChunkError(parsed.status(), chunk_index, record_offset);
  }
  const container::ChunkHeader chunk_header = *parsed;
  if (header_out != nullptr) *header_out = chunk_header;
  // The section sizes are bounds-checked by ParseChunkHeader, so the
  // record's extent is known even when its element count is corrupt:
  // advance past the payload before validating, keeping later records
  // reachable for salvage-mode callers.
  const ByteSpan compressed_section =
      container_bytes.subspan(*offset, chunk_header.compressed_size);
  *offset += chunk_header.compressed_size;
  const ByteSpan raw_section =
      container_bytes.subspan(*offset, chunk_header.raw_size);
  *offset += chunk_header.raw_size;
  if (stats != nullptr) stats->parse_seconds += parse_timer.ElapsedSeconds();
  if (chunk_header.element_count > max_elements) {
    return AnnotateChunkError(
        Status::Corruption("container: chunk claims more elements than the "
                           "header's chunk size"),
        chunk_index, record_offset);
  }

  const size_t chunk_base = out->size();
  out->resize(chunk_base + chunk_header.element_count * width);
  MutableByteSpan dest(out->data() + chunk_base,
                       chunk_header.element_count * width);
  Status status = DecodeChunkPayload(chunk_header, compressed_section,
                                     raw_section, codec, linearization, width,
                                     verify_checksums, dest, stats,
                                     failed_stage, arena, chunk_index,
                                     raw_linearization);
  if (!status.ok()) {
    out->resize(chunk_base);  // Drop partially scattered bytes.
    return AnnotateChunkError(status, chunk_index, record_offset);
  }
  return status;
}

}  // namespace isobar
