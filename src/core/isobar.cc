#include "core/isobar.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "compressors/registry.h"
#include "core/chunk_codec.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/trace_export.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace isobar {
namespace {

/// One chunk's encode result, produced on a worker and consumed by the
/// (single) container writer.
struct EncodedChunk {
  Status status;
  Bytes record;
  CompressionStats stats;
  telemetry::ChunkTrace trace;
};

}  // namespace

Status ValidateCompressInput(uint64_t data_bytes, size_t width) {
  if (width == 0 || width > 64) {
    return Status::InvalidArgument("element width must be in [1, 64]");
  }
  if (data_bytes % width != 0) {
    return Status::InvalidArgument(
        "data size is not a multiple of the element width");
  }
  return Status::OK();
}

IsobarCompressor::IsobarCompressor(CompressOptions options)
    : options_(std::move(options)) {}

Result<Bytes> IsobarCompressor::Compress(ByteSpan data, size_t width) const {
  CompressionStats stats;
  return Compress(data, width, &stats);
}

Result<Bytes> IsobarCompressor::Compress(ByteSpan data, size_t width,
                                         CompressionStats* stats) const {
  if (stats == nullptr) return Status::InvalidArgument("stats must not be null");
  ISOBAR_RETURN_NOT_OK(ValidateCompressInput(data.size(), width));
  ISOBAR_RETURN_NOT_OK(ValidateAnalyzerOptions(options_.analyzer));
  if (options_.chunk_elements == 0) {
    return Status::InvalidArgument("chunk_elements must be > 0");
  }
  if (options_.container_version < container::kVersionV1 ||
      options_.container_version > container::kVersion) {
    return Status::InvalidArgument("unsupported container_version");
  }

  *stats = CompressionStats{};
  stats->input_bytes = data.size();
  telemetry::ScopedSpan compress_span("compress");
  static telemetry::Counter& compress_calls =
      telemetry::GetCounter("pipeline.compress_calls");
  static telemetry::Counter& compress_input =
      telemetry::GetCounter("pipeline.compress_input_bytes");
  static telemetry::Counter& compress_output =
      telemetry::GetCounter("pipeline.compress_output_bytes");
  compress_calls.Increment();
  compress_input.Add(data.size());
  Stopwatch total_timer;

  const Analyzer analyzer(options_.analyzer);
  // --- EUPA phase, sampling the head of the data (§II.C).
  const uint64_t probe_elements =
      std::min<uint64_t>(data.size() / width,
                         std::max<uint64_t>(options_.eupa.sample_elements, 1));
  ISOBAR_ASSIGN_OR_RETURN(
      const EupaDecision decision,
      ChoosePipeline(options_, data.subspan(0, probe_elements * width), data,
                     width, &stats->analysis_seconds));
  stats->decision = decision;
  const uint64_t trace_id = BeginPipelineTrace(decision, width);

  ISOBAR_ASSIGN_OR_RETURN(const Codec* codec, GetCodec(decision.codec));

  // --- Chunked pipeline (Alg. 1 applied per chunk, §II.D).
  const Chunker chunker(data, width, options_.chunk_elements);
  Bytes out;
  out.reserve(data.size() / 2 + container::kHeaderSize);

  container::Header header;
  header.version = options_.container_version;
  header.width = static_cast<uint8_t>(width);
  header.codec = decision.codec;
  header.linearization = decision.linearization;
  header.preference = options_.eupa.preference;
  // Safe cast: ValidateAnalyzerOptions bounded tau to a finite [1, 256].
  header.tau_centi = static_cast<uint16_t>(options_.analyzer.tau * 100.0 + 0.5);
  header.element_count = data.size() / width;
  header.chunk_elements = options_.chunk_elements;
  header.chunk_count = chunker.chunk_count();
  container::AppendHeader(header, &out);
  const size_t header_bytes = out.size();
  const Linearization raw_linearization =
      container::RawSectionLinearization(header.version);

  // Container offset of each chunk record as it is appended; v2 builds
  // its index footer from these after the pipeline drains.
  std::vector<size_t> record_offsets;
  record_offsets.reserve(static_cast<size_t>(chunker.chunk_count()));

  const size_t num_threads = ResolveNumThreads(options_.num_threads);
  if (num_threads <= 1 || chunker.chunk_count() <= 1) {
    ScratchArena& arena = ScratchArena::ThreadLocal();
    for (uint64_t ci = 0; ci < chunker.chunk_count(); ++ci) {
      record_offsets.push_back(out.size());
      ISOBAR_RETURN_NOT_OK(EncodeChunk(analyzer, *codec,
                                       decision.linearization,
                                       chunker.chunk(ci), width, &out, stats,
                                       trace_id, nullptr, &arena, ci,
                                       raw_linearization));
    }
  } else {
    // Fan each chunk's analyze→partition→solve out as a pool task; this
    // thread stays the single writer, appending records in chunk order.
    // The in-flight window bounds memory at O(threads) encoded chunks
    // instead of O(file).
    auto& recorder = telemetry::TraceRecorder::Global();
    const bool tracing = trace_id != 0;
    // This thread is the pipeline's in-order writer; name its timeline
    // track so writer stalls are attributable in the trace viewer.
    telemetry::Timeline::SetCurrentThreadName("writer");
    ThreadPool pool(num_threads);
    const size_t window = 2 * num_threads;
    std::deque<std::future<EncodedChunk>> in_flight;
    uint64_t next_chunk = 0;
    auto submit_next = [&] {
      const uint64_t ordinal = next_chunk++;
      const ByteSpan chunk = chunker.chunk(ordinal);
      in_flight.push_back(
          pool.Submit([&analyzer, &codec, &decision, chunk, width, trace_id,
                       tracing, ordinal, raw_linearization]() -> EncodedChunk {
            EncodedChunk encoded;
            // ThreadLocal() inside the task: each pool worker gets (and
            // keeps) its own arena across every chunk it encodes.
            encoded.status = EncodeChunk(
                analyzer, *codec, decision.linearization, chunk, width,
                &encoded.record, &encoded.stats, trace_id,
                tracing ? &encoded.trace : nullptr,
                &ScratchArena::ThreadLocal(), ordinal, raw_linearization);
            return encoded;
          }));
    };
    while (next_chunk < chunker.chunk_count() && in_flight.size() < window) {
      submit_next();
    }
    uint64_t write_index = 0;
    while (!in_flight.empty()) {
      EncodedChunk encoded;
      {
        // The in-order stall: how long the writer blocked on the oldest
        // outstanding chunk. On the timeline, back-to-back writer.wait
        // slices mean workers can't keep the window full.
        telemetry::ScopedSpan wait_span("writer.wait", trace_id,
                                        write_index + 1);
        encoded = in_flight.front().get();
      }
      in_flight.pop_front();
      if (next_chunk < chunker.chunk_count()) submit_next();
      // On error the early return destroys `pool`, which drains the
      // remaining queued tasks before the chunker and codec go away.
      ISOBAR_RETURN_NOT_OK(encoded.status);
      {
        telemetry::ScopedSpan append_span("writer.append", trace_id,
                                          write_index + 1);
        record_offsets.push_back(out.size());
        out.insert(out.end(), encoded.record.begin(), encoded.record.end());
        MergeChunkStats(encoded.stats, stats);
        if (tracing) recorder.RecordChunk(trace_id, std::move(encoded.trace));
      }
      ++write_index;
    }
    pool.PublishStats();
  }

  if (header.version >= container::kVersion) {
    // Build the chunk-index footer from the records just written; both
    // this path and the streaming writer derive entries from the final
    // byte layout, so batch and streamed containers of the same input
    // carry byte-identical footers.
    std::vector<container::IndexEntry> entries;
    entries.reserve(record_offsets.size());
    uint64_t element_offset = 0;
    for (const size_t record_offset : record_offsets) {
      ISOBAR_ASSIGN_OR_RETURN(
          container::IndexEntry entry,
          container::MakeIndexEntry(out, record_offset, element_offset));
      element_offset += entry.element_count;
      entries.push_back(entry);
    }
    container::AppendFooter(entries, header.element_count, &out);
  }

  stats->output_bytes = out.size();
  stats->total_seconds = total_timer.ElapsedSeconds();
  compress_output.Add(out.size());
  telemetry::TraceRecorder::Global().EndPipeline(trace_id, data.size(),
                                                 out.size(), header_bytes);
  return out;
}

namespace {

// --- The read side. Every read is one job: plan the covering chunk
// records, materialize each one into its own slice of the output, and
// account for damage in chunk order. The three batch entry points differ
// only in how they plan and what a record's materialize step writes.

/// What every read shares once the file header is parsed.
struct ReadSource {
  ByteSpan bytes;
  DecompressOptions options;
  container::Header header;  ///< With any footer totals adopted.
  const Codec* codec = nullptr;
  ChunkIndexResolution footer;
  ChunkErrorPolicy policy = ChunkErrorPolicy::kFail;
  bool salvage = false;  ///< policy != kFail.
  SalvageReport* report = nullptr;
};

/// One chunk record a read materializes, and where its bytes go.
struct PlanEntry {
  uint64_t index = 0;             ///< Record position in the container.
  uint64_t byte_offset = 0;       ///< Container offset of its chunk header.
  container::ChunkHeader header;  ///< As parsed: the declared element count.
  ByteSpan compressed;
  ByteSpan raw;
  /// Assumed element count: the declared one, or the nominal chunk size
  /// when the declared count is corrupt.
  uint64_t elements = 0;
  uint64_t element_offset = 0;  ///< First container element it covers.
  /// The read wants the record's elements [window_begin, window_end).
  uint64_t window_begin = 0;
  uint64_t window_end = 0;
  uint64_t dest_offset = 0;  ///< Output position of the window.
  Status error;              ///< Damage found while planning.
};

struct DecodePlan {
  std::vector<PlanEntry> entries;
  /// The record a walk stopped at: one whose framing is destroyed
  /// (tail_lost) or, under kFail, one over-declaring its element count.
  PlanEntry stop;
  bool tail_lost = false;
  uint64_t walked_elements = 0;  ///< Elements the walked records cover.
};

/// Resets the caller's salvage report, parses the file header, and
/// resolves the solver and the v2 index footer.
Status OpenRead(ByteSpan container_bytes, const DecompressOptions& options,
                DecompressionStats* stats, ReadSource* src) {
  src->bytes = container_bytes;
  src->options = options;
  src->policy = options.on_chunk_error;
  src->salvage = src->policy != ChunkErrorPolicy::kFail;
  src->report = options.salvage_report;
  if (src->report != nullptr) *src->report = SalvageReport{};
  stats->input_bytes = container_bytes.size();
  Stopwatch parse_timer;
  size_t offset = 0;
  ISOBAR_ASSIGN_OR_RETURN(src->header,
                          container::ParseHeader(container_bytes, &offset));
  ISOBAR_ASSIGN_OR_RETURN(src->codec, GetCodec(src->header.codec));
  ISOBAR_RETURN_NOT_OK(ResolveChunkIndex(container_bytes, src->salvage,
                                         &src->header, &src->footer));
  stats->parse_seconds += parse_timer.ElapsedSeconds();
  return Status::OK();
}

/// Ends a read that succeeded: snapshots the flight recorder into a
/// damaged report and fills the output-side stats.
Bytes FinishRead(const ReadSource& src, Bytes out, const Stopwatch& timer,
                 DecompressionStats* stats) {
  CaptureFlightRecorder(src.report);
  stats->output_bytes = out.size();
  stats->total_seconds = timer.ElapsedSeconds();
  return out;
}

/// The sequential record walk, the planner's source whenever no valid
/// index is used. Parses chunk headers from the first record until the
/// header's chunk count (counted containers) or the payload end, or until
/// `stop_after_element` elements are covered. A record over-declaring its
/// element count is damaged and assumed full-size, keeping element
/// addressing monotone; a record whose framing is destroyed ends the walk
/// with tail_lost. Under kFail either one ends the walk with its error and
/// is named in plan->stop. A whole walk (no `stop_after_element`) that
/// ends normally also checks that the records end exactly at the payload
/// end — under salvage the leftover is reported as trailing bytes — and,
/// when nothing was damaged, cover the declared element count.
Status WalkRecords(const ReadSource& src, uint64_t stop_after_element,
                   DecodePlan* plan, double* parse_seconds) {
  Stopwatch parse_timer;
  const container::Header& header = src.header;
  const bool counted = header.chunk_count != container::kUnknownCount;
  Status status;
  bool damaged = false;
  size_t offset = container::kHeaderSize;
  uint64_t element_offset = 0;
  while ((counted ? plan->entries.size() < header.chunk_count
                  : offset < src.footer.payload_end) &&
         element_offset < stop_after_element) {
    PlanEntry e;
    e.index = plan->entries.size();
    e.byte_offset = offset;
    e.element_offset = element_offset;
    auto parsed = container::ParseChunkHeader(src.bytes, &offset);
    if (!parsed.ok()) {
      e.error = AnnotateChunkError(parsed.status(), e.index, e.byte_offset);
      if (!src.salvage) status = e.error;
      plan->tail_lost = true;
      plan->stop = std::move(e);
      break;
    }
    e.header = *parsed;
    e.compressed = src.bytes.subspan(offset, e.header.compressed_size);
    offset += e.header.compressed_size;
    e.raw = src.bytes.subspan(offset, e.header.raw_size);
    offset += e.header.raw_size;
    e.elements = e.header.element_count;
    if (e.elements > header.chunk_elements) {
      e.error = AnnotateChunkError(
          Status::Corruption("container: chunk claims more elements than "
                             "the header's chunk size"),
          e.index, e.byte_offset);
      if (!src.salvage) {
        status = e.error;
        plan->stop = std::move(e);
        break;
      }
      // The record still delimits itself; assume a full chunk, the true
      // shape of every record but the last.
      e.elements = header.chunk_elements;
      damaged = true;
    }
    element_offset += e.elements;
    plan->entries.push_back(std::move(e));
  }
  plan->walked_elements = element_offset;
  *parse_seconds += parse_timer.ElapsedSeconds();
  const size_t payload_end = src.footer.payload_end;
  if (!status.ok() || plan->tail_lost ||
      stop_after_element != container::kUnknownCount) {
    return status;
  }
  if (offset != payload_end) {
    if (!src.salvage) {
      return Status::Corruption("container: trailing bytes after last chunk");
    }
    if (src.report != nullptr && offset < payload_end) {
      src.report->trailing_bytes = payload_end - offset;
    }
  }
  if (header.element_count != container::kUnknownCount && !damaged &&
      element_offset != header.element_count) {
    return Status::Corruption("container: element count mismatch");
  }
  return Status::OK();
}

/// Plans a window read from the v2 index: a binary search finds the first
/// covering entry, and only the covering records' headers are parsed. A
/// record disagreeing with its entry is damaged but keeps the entry's
/// shape, so it fails only the elements it covers.
void PlanFromIndex(const ReadSource& src, uint64_t first, uint64_t end,
                   DecodePlan* plan, double* parse_seconds) {
  Stopwatch parse_timer;
  const std::vector<container::IndexEntry>& entries = src.footer.index.entries;
  size_t i = static_cast<size_t>(
      std::partition_point(entries.begin(), entries.end(),
                           [&](const container::IndexEntry& e) {
                             return e.element_offset <= first;
                           }) -
      entries.begin());
  if (i > 0) --i;
  for (; i < entries.size() && entries[i].element_offset < end; ++i) {
    const container::IndexEntry& entry = entries[i];
    PlanEntry e;
    e.index = i;
    e.byte_offset = entry.record_offset;
    e.element_offset = entry.element_offset;
    e.elements = entry.element_count;
    size_t offset = static_cast<size_t>(entry.record_offset);
    auto parsed = container::ParseChunkHeader(src.bytes, &offset);
    if (parsed.ok() && parsed->element_count == entry.element_count) {
      e.header = *parsed;
      e.compressed = src.bytes.subspan(offset, e.header.compressed_size);
      e.raw = src.bytes.subspan(offset + e.header.compressed_size,
                                e.header.raw_size);
    } else {
      e.error = AnnotateChunkError(
          parsed.ok() ? Status::Corruption("container: chunk record "
                                           "disagrees with its index entry")
                      : parsed.status(),
          i, entry.record_offset);
    }
    plan->entries.push_back(std::move(e));
  }
  *parse_seconds += parse_timer.ElapsedSeconds();
}

/// What materializing one planned record produced.
struct ChunkOutcome {
  Status status;
  ChunkFailureStage stage = ChunkFailureStage::kHeader;
  uint64_t recovered_bytes = 0;  ///< Output bytes the record served.
  uint64_t lost_bytes = 0;       ///< Output bytes left zero on failure.
  DecompressionStats stats;
};

/// The executor behind every batch read. Materializes each planned record
/// into its own disjoint slice of `*out` — on a pool when more than one
/// thread and more than one record are in play, serially otherwise — then
/// folds the outcomes in chunk order, applying the chunk-error policy. A
/// failed record leaves its slice zeroed. The whole-container read
/// (`full_read`) reports a damaged record's declared element count and,
/// under kSkip, compacts its slice out of the output; window and column
/// reads report the assumed count and zero-fill under both salvage
/// policies, since dropping a slice would shift their addressing.
template <typename Materialize>
Status ExecutePlan(const ReadSource& src, const DecodePlan& plan,
                   bool full_read, const Materialize& materialize, Bytes* out,
                   DecompressionStats* stats) {
  const std::vector<PlanEntry>& entries = plan.entries;
  const size_t width = src.header.width;
  SalvageReport* report = src.report;
  std::vector<std::future<ChunkOutcome>> results;
  std::unique_ptr<ThreadPool> pool;
  const size_t threads = ResolveNumThreads(src.options.num_threads);
  if (threads > 1 && entries.size() > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    results.reserve(entries.size());
    for (const PlanEntry& e : entries) {
      results.push_back(pool->Submit([&e, &materialize] {
        return materialize(e);
      }));
    }
  }

  // Slices a kSkip full read drops, erased back to front after the loop.
  std::vector<std::pair<size_t, size_t>> removed;  // (offset, bytes)
  uint64_t skipped_bytes = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const PlanEntry& e = entries[i];
    const ChunkOutcome outcome =
        pool != nullptr ? results[i].get() : materialize(e);
    stats->decode_seconds += outcome.stats.decode_seconds;
    stats->scatter_seconds += outcome.stats.scatter_seconds;
    stats->chunk_count += outcome.stats.chunk_count;
    if (report != nullptr) ++report->chunks_total;
    if (outcome.status.ok()) {
      if (report != nullptr) {
        ++report->chunks_recovered;
        report->bytes_recovered += outcome.recovered_bytes;
      }
      continue;
    }
    const uint64_t elements = full_read ? e.header.element_count : e.elements;
    // Under kFail the early return destroys `pool` first, draining its
    // outstanding tasks before the plan and the output leave scope.
    if (!src.salvage) {
      RecordSalvageEntry(report, e.index, e.byte_offset, elements,
                         outcome.stage, src.policy, outcome.status,
                         e.dest_offset, 0);
      CaptureFlightRecorder(report);
      return outcome.status;
    }
    uint64_t lost_bytes = outcome.lost_bytes;
    const uint64_t output_offset = e.dest_offset - skipped_bytes;
    if (full_read && src.policy == ChunkErrorPolicy::kSkip) {
      const size_t slice =
          static_cast<size_t>(e.window_end - e.window_begin) * width;
      if (slice > 0) removed.emplace_back(e.dest_offset, slice);
      skipped_bytes += slice;
      lost_bytes = e.elements * width;
    }
    RecordSalvageEntry(report, e.index, e.byte_offset, elements,
                       outcome.stage, src.policy, outcome.status,
                       output_offset, lost_bytes);
    if (report != nullptr) report->bytes_recovered += outcome.recovered_bytes;
  }
  for (auto it = removed.rbegin(); it != removed.rend(); ++it) {
    out->erase(out->begin() + it->first,
               out->begin() + it->first + it->second);
  }
  if (pool != nullptr) pool->PublishStats();
  return Status::OK();
}

/// Materialize step of full and range reads: decodes the record's window
/// to its destination, in place when the window is the whole record and
/// through the arena's kWindow slot otherwise. Failure leaves it zeroed.
ChunkOutcome DecodeWindow(const ReadSource& src, const PlanEntry& e,
                          Bytes* out) {
  const size_t width = src.header.width;
  const MutableByteSpan dest(
      out->data() + e.dest_offset,
      static_cast<size_t>(e.window_end - e.window_begin) * width);
  ChunkOutcome outcome;
  outcome.status = e.error;
  if (e.error.ok()) {
    telemetry::ScopedSpan chunk_span("decompress.chunk", 0, e.index + 1);
    ScratchArena& arena = ScratchArena::ThreadLocal();
    const bool whole =
        e.window_begin == 0 && dest.size() == e.header.element_count * width;
    Bytes& staging = arena.buffer(ScratchArena::kWindow);
    if (!whole) staging.resize(e.header.element_count * width);
    outcome.status = DecodeChunkPayload(
        e.header, e.compressed, e.raw, *src.codec, src.header.linearization,
        width, src.options.verify_checksums,
        whole ? dest : MutableByteSpan(staging), &outcome.stats,
        &outcome.stage, &arena, e.index,
        container::RawSectionLinearization(src.header.version));
    if (!outcome.status.ok()) {
      std::fill(dest.begin(), dest.end(), uint8_t{0});
    } else if (!whole) {
      std::memcpy(dest.data(), staging.data() + e.window_begin * width,
                  dest.size());
    }
    outcome.status = AnnotateChunkError(outcome.status, e.index, e.byte_offset);
  }
  (outcome.status.ok() ? outcome.recovered_bytes : outcome.lost_bytes) =
      dest.size();
  return outcome;
}

}  // namespace

Result<Bytes> IsobarCompressor::Decompress(ByteSpan container_bytes,
                                           const DecompressOptions& options,
                                           DecompressionStats* stats) {
  telemetry::ScopedSpan decompress_span("decompress");
  static telemetry::Counter& decompress_calls =
      telemetry::GetCounter("pipeline.decompress_calls");
  static telemetry::Counter& decompress_input =
      telemetry::GetCounter("pipeline.decompress_input_bytes");
  static telemetry::Counter& decompress_output =
      telemetry::GetCounter("pipeline.decompress_output_bytes");
  decompress_calls.Increment();
  decompress_input.Add(container_bytes.size());
  DecompressionStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = DecompressionStats{};
  Stopwatch total_timer;

  ReadSource src;
  ISOBAR_RETURN_NOT_OK(OpenRead(container_bytes, options, stats, &src));
  const size_t width = src.header.width;
  DecodePlan plan;
  const Status walked = WalkRecords(src, container::kUnknownCount, &plan,
                                    &stats->parse_seconds);
  // Every record lands whole at the next output offset; a record damaged
  // while planning takes no room under kSkip.
  uint64_t out_bytes = 0;
  for (PlanEntry& e : plan.entries) {
    e.window_end = e.error.ok() || src.policy == ChunkErrorPolicy::kZeroFill
                       ? e.elements
                       : 0;
    e.dest_offset = out_bytes;
    out_bytes += e.window_end * width;
  }
  const PlanEntry& stop = plan.stop;
  if (!stop.error.ok()) {
    // The full read documents the record that ended its walk before any
    // chunk decodes.
    RecordSalvageEntry(src.report, stop.index, stop.byte_offset,
                       stop.header.element_count, ChunkFailureStage::kHeader,
                       src.policy, stop.error, out_bytes, 0);
    if (plan.tail_lost && src.report != nullptr) {
      src.report->truncated_tail = true;
    }
    CaptureFlightRecorder(src.report);
  }
  ISOBAR_RETURN_NOT_OK(walked);

  Bytes out(static_cast<size_t>(out_bytes), 0);
  ISOBAR_RETURN_NOT_OK(ExecutePlan(
      src, plan, /*full_read=*/true,
      [&](const PlanEntry& e) { return DecodeWindow(src, e, &out); }, &out,
      stats));
  const uint64_t declared_elements = src.header.element_count;
  if (src.policy == ChunkErrorPolicy::kZeroFill && plan.tail_lost &&
      declared_elements != container::kUnknownCount &&
      out.size() < declared_elements * width) {
    // Counted container with its tail framing destroyed: pad to the
    // declared size so downstream readers still see a full-shape restart
    // file, holes and all.
    const uint64_t pad = declared_elements * width - out.size();
    out.resize(static_cast<size_t>(declared_elements * width));
    if (src.report != nullptr && !src.report->damaged.empty()) {
      src.report->damaged.back().lost_bytes += pad;
      src.report->bytes_lost += pad;
    }
  }
  decompress_output.Add(out.size());
  return FinishRead(src, std::move(out), total_timer, stats);
}

Result<Bytes> IsobarCompressor::DecompressRange(
    ByteSpan container_bytes, uint64_t first_element, uint64_t end_element,
    const DecompressOptions& options, DecompressionStats* stats) {
  telemetry::ScopedSpan range_span("decompress.range");
  static telemetry::Counter& range_reads =
      telemetry::GetCounter("pipeline.range_reads");
  static telemetry::Counter& range_chunks =
      telemetry::GetCounter("pipeline.range_chunks_decoded");
  range_reads.Increment();
  DecompressionStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = DecompressionStats{};
  if (first_element > end_element) {
    return Status::InvalidArgument("range: first_element > end_element");
  }
  Stopwatch total_timer;

  ReadSource src;
  ISOBAR_RETURN_NOT_OK(OpenRead(container_bytes, options, stats, &src));
  const size_t width = src.header.width;
  if (src.header.element_count != container::kUnknownCount &&
      end_element > src.header.element_count) {
    return Status::InvalidArgument(
        "range: end_element past the container's element count");
  }
  uint64_t out_bytes = 0;
  if (!container::CheckedMul64(end_element - first_element, width,
                               &out_bytes) ||
      out_bytes > std::numeric_limits<size_t>::max()) {
    return Status::InvalidArgument("range: output size overflows");
  }
  Bytes out(static_cast<size_t>(out_bytes), 0);
  if (first_element == end_element) {
    stats->total_seconds = total_timer.ElapsedSeconds();
    return out;
  }

  // The index names the covering records directly; without one (v1, or a
  // damaged footer under salvage) the walk runs just far enough to cover
  // the window.
  DecodePlan plan;
  if (src.footer.have_index) {
    PlanFromIndex(src, first_element, end_element, &plan,
                  &stats->parse_seconds);
  } else {
    ISOBAR_RETURN_NOT_OK(
        WalkRecords(src, end_element, &plan, &stats->parse_seconds));
    if (plan.tail_lost && src.report != nullptr) {
      src.report->truncated_tail = true;
    }
    if (!plan.tail_lost && plan.walked_elements < end_element &&
        src.header.element_count == container::kUnknownCount) {
      // Footer-less streamed container that ran out of records before the
      // window's end: the window is out of bounds, not damaged.
      return Status::InvalidArgument(
          "range: end_element past the container's element count");
    }
  }
  std::erase_if(plan.entries, [&](const PlanEntry& e) {
    return e.element_offset + e.elements <= first_element ||
           e.element_offset >= end_element;
  });
  for (PlanEntry& e : plan.entries) {
    const uint64_t begin = std::max(first_element, e.element_offset);
    e.window_begin = begin - e.element_offset;
    e.window_end = std::min(end_element, e.element_offset + e.elements) -
                   e.element_offset;
    e.dest_offset = (begin - first_element) * width;
  }

  const Status executed = ExecutePlan(
      src, plan, /*full_read=*/false,
      [&](const PlanEntry& e) { return DecodeWindow(src, e, &out); }, &out,
      stats);
  range_chunks.Add(stats->chunk_count);
  ISOBAR_RETURN_NOT_OK(executed);
  if (plan.tail_lost && plan.walked_elements < end_element) {
    // The walk died before covering the window; the uncovered slice stays
    // zeroed and is billed to the framing failure.
    const uint64_t lost_begin = std::max(first_element, plan.walked_elements);
    RecordSalvageEntry(src.report, plan.stop.index, plan.stop.byte_offset, 0,
                       ChunkFailureStage::kHeader, src.policy,
                       plan.stop.error, (lost_begin - first_element) * width,
                       (end_element - lost_begin) * width);
  }
  return FinishRead(src, std::move(out), total_timer, stats);
}

Result<Bytes> IsobarCompressor::DecompressColumns(
    ByteSpan container_bytes, uint64_t column_mask,
    const DecompressOptions& options, DecompressionStats* stats) {
  telemetry::ScopedSpan columns_span("decompress.columns");
  static telemetry::Counter& column_reads =
      telemetry::GetCounter("pipeline.column_reads");
  column_reads.Increment();
  DecompressionStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = DecompressionStats{};
  Stopwatch total_timer;

  ReadSource src;
  ISOBAR_RETURN_NOT_OK(OpenRead(container_bytes, options, stats, &src));
  const size_t width = src.header.width;
  if (column_mask == 0) {
    return Status::InvalidArgument("columns: empty column mask");
  }
  if ((column_mask & ~FullMask(width)) != 0) {
    return Status::InvalidArgument(
        "columns: mask has bits beyond the element width");
  }
  const size_t requested = static_cast<size_t>(PopcountMask(column_mask,
                                                            width));

  // Every chunk holds a slice of every column, so the record walk always
  // runs in full; the index's contribution is the trustworthy totals and
  // payload bound resolved above.
  DecodePlan plan;
  ISOBAR_RETURN_NOT_OK(WalkRecords(src, container::kUnknownCount, &plan,
                                   &stats->parse_seconds));
  if (plan.tail_lost && src.report != nullptr) {
    src.report->truncated_tail = true;
  }
  // Damage can only shrink coverage; size the planes to the declared total
  // when one exists so holes stay holes instead of shifting planes.
  const uint64_t total_elements =
      src.header.element_count != container::kUnknownCount
          ? src.header.element_count
          : plan.walked_elements;
  uint64_t out_bytes = 0;
  if (!container::CheckedMul64(total_elements, requested, &out_bytes) ||
      out_bytes > std::numeric_limits<size_t>::max()) {
    return Status::Corruption("columns: output size overflows");
  }
  Bytes out(static_cast<size_t>(out_bytes), 0);
  for (PlanEntry& e : plan.entries) {
    e.dest_offset = e.element_offset;
    if (e.element_offset + e.elements <= total_elements) {
      e.window_end = e.elements;
    } else if (e.error.ok()) {
      // Over-declared records under salvage can shift later ones past the
      // declared total; their planes stay zero rather than write out of
      // bounds.
      e.error = Status::Corruption(
          "container: chunk extends past the declared element count");
    }
  }

  ISOBAR_RETURN_NOT_OK(ExecutePlan(
      src, plan, /*full_read=*/false,
      [&](const PlanEntry& e) {
        ChunkOutcome outcome;
        uint64_t served = 0;
        outcome.status = e.error;
        if (e.error.ok()) {
          outcome.stage = ChunkFailureStage::kPayload;
          outcome.status = AnnotateChunkError(
              ProjectChunkColumns(
                  e.header, e.compressed, e.raw, *src.codec,
                  src.header.linearization, width, column_mask,
                  out.data() + e.dest_offset,
                  static_cast<size_t>(total_elements), &served,
                  &outcome.stats, &ScratchArena::ThreadLocal(), e.index,
                  container::RawSectionLinearization(src.header.version)),
              e.index, e.byte_offset);
        }
        outcome.recovered_bytes =
            e.elements * static_cast<uint64_t>(PopcountMask(served, width));
        outcome.lost_bytes =
            (e.window_end - e.window_begin) *
            static_cast<uint64_t>(PopcountMask(column_mask & ~served, width));
        return outcome;
      },
      &out, stats));
  if (plan.tail_lost) {
    RecordSalvageEntry(src.report, plan.stop.index, plan.stop.byte_offset, 0,
                       ChunkFailureStage::kHeader, src.policy,
                       plan.stop.error, plan.walked_elements,
                       (total_elements - plan.walked_elements) * requested);
  }
  return FinishRead(src, std::move(out), total_timer, stats);
}

}  // namespace isobar
