#include "core/stream.h"

#include <algorithm>
#include <limits>

#include "compressors/registry.h"
#include "core/chunk_codec.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/timeline.h"
#include "telemetry/trace_export.h"
#include "util/stopwatch.h"

namespace isobar {

IsobarStreamWriter::IsobarStreamWriter(CompressOptions options, size_t width,
                                       ByteSink* sink)
    : options_(std::move(options)), width_(width), sink_(sink) {
  if (width_ == 0 || width_ > 64) {
    init_status_ = Status::InvalidArgument("element width must be in [1, 64]");
  } else if (options_.chunk_elements == 0) {
    init_status_ = Status::InvalidArgument("chunk_elements must be > 0");
  } else if (sink_ == nullptr) {
    init_status_ = Status::InvalidArgument("sink must not be null");
  } else if (options_.container_version < container::kVersionV1 ||
             options_.container_version > container::kVersion) {
    init_status_ = Status::InvalidArgument("unsupported container_version");
  } else {
    init_status_ = ValidateAnalyzerOptions(options_.analyzer);
  }
  stats_.decision.preference = options_.eupa.preference;
  num_threads_ = ResolveNumThreads(options_.num_threads);
}

Status IsobarStreamWriter::EnsurePipeline(ByteSpan training_data) {
  if (header_written_) return Status::OK();

  // The batch compressor's EUPA phase, on the training window.
  ISOBAR_ASSIGN_OR_RETURN(decision_,
                          ChoosePipeline(options_, training_data,
                                         training_data, width_,
                                         &stats_.analysis_seconds));
  stats_.decision = decision_;
  trace_id_ = BeginPipelineTrace(decision_, width_);
  ISOBAR_ASSIGN_OR_RETURN(codec_, GetCodec(decision_.codec));

  container::Header header;
  header.version = options_.container_version;
  header.width = static_cast<uint8_t>(width_);
  header.codec = decision_.codec;
  header.linearization = decision_.linearization;
  header.preference = options_.eupa.preference;
  // Safe cast: ValidateAnalyzerOptions bounded tau to a finite [1, 256].
  header.tau_centi =
      static_cast<uint16_t>(options_.analyzer.tau * 100.0 + 0.5);
  header.element_count = container::kUnknownCount;
  header.chunk_elements = options_.chunk_elements;
  header.chunk_count = container::kUnknownCount;
  Bytes encoded;
  container::AppendHeader(header, &encoded);
  ISOBAR_RETURN_NOT_OK(sink_->Write(encoded));
  stats_.output_bytes += encoded.size();
  header_bytes_ = encoded.size();
  header_written_ = true;
  return Status::OK();
}

Status IsobarStreamWriter::IndexRecord(ByteSpan record) {
  if (options_.container_version < container::kVersion) return Status::OK();
  // The record bytes are about to leave through the sink, so the index
  // entry is derived from the local buffer; only the record's stream
  // position (= bytes written so far) comes from the writer's accounting.
  ISOBAR_ASSIGN_OR_RETURN(container::IndexEntry entry,
                          container::MakeIndexEntry(record, /*record_offset=*/0,
                                                    elements_indexed_));
  entry.record_offset = stats_.output_bytes;
  elements_indexed_ += entry.element_count;
  index_entries_.push_back(entry);
  return Status::OK();
}

Status IsobarStreamWriter::EmitChunk(ByteSpan chunk) {
  ISOBAR_RETURN_NOT_OK(EnsurePipeline(chunk));
  const uint64_t ordinal = chunks_emitted_++;
  const Linearization raw_linearization =
      container::RawSectionLinearization(options_.container_version);
  if (num_threads_ <= 1) {
    const Analyzer analyzer(options_.analyzer);
    Bytes record;
    ISOBAR_RETURN_NOT_OK(EncodeChunk(analyzer, *codec_,
                                     decision_.linearization, chunk, width_,
                                     &record, &stats_, trace_id_, nullptr,
                                     &ScratchArena::ThreadLocal(), ordinal,
                                     raw_linearization));
    ISOBAR_RETURN_NOT_OK(IndexRecord(record));
    ISOBAR_RETURN_NOT_OK(sink_->Write(record));
    stats_.output_bytes += record.size();
    return Status::OK();
  }

  // Pipelined producer/consumer: the encode runs on the pool while this
  // thread returns to the producer. The caller's buffer is only valid for
  // this call, so the task owns a copy of the chunk bytes. codec_,
  // decision_, and trace_id_ are frozen by EnsurePipeline above, before
  // any task can observe them.
  if (pool_ == nullptr) {
    telemetry::Timeline::SetCurrentThreadName("writer");
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
  Bytes owned(chunk.begin(), chunk.end());
  in_flight_.push_back(pool_->Submit(
      [this, owned = std::move(owned), ordinal,
       raw_linearization]() -> EncodedRecord {
        EncodedRecord encoded;
        const Analyzer analyzer(options_.analyzer);
        // ThreadLocal() inside the task: each pool worker reuses its own
        // arena across every chunk it encodes.
        encoded.status = EncodeChunk(
            analyzer, *codec_, decision_.linearization, owned, width_,
            &encoded.record, &encoded.stats, trace_id_,
            trace_id_ != 0 ? &encoded.trace : nullptr,
            &ScratchArena::ThreadLocal(), ordinal, raw_linearization);
        return encoded;
      }));
  if (in_flight_.size() >= 2 * num_threads_) {
    return DrainOne();
  }
  return Status::OK();
}

Status IsobarStreamWriter::DrainOne() {
  const uint64_t ordinal = chunks_drained_++;
  EncodedRecord encoded;
  {
    // A long wait here = the in-order writer stalled on a straggler chunk;
    // the timeline makes the stall and its chunk visible.
    telemetry::ScopedSpan wait_span("writer.wait", trace_id_, ordinal + 1);
    encoded = in_flight_.front().get();
    in_flight_.pop_front();
  }
  ISOBAR_RETURN_NOT_OK(encoded.status);
  telemetry::ScopedSpan append_span("writer.append", trace_id_, ordinal + 1);
  ISOBAR_RETURN_NOT_OK(IndexRecord(encoded.record));
  ISOBAR_RETURN_NOT_OK(sink_->Write(encoded.record));
  stats_.output_bytes += encoded.record.size();
  MergeChunkStats(encoded.stats, &stats_);
  if (trace_id_ != 0) {
    telemetry::TraceRecorder::Global().RecordChunk(trace_id_,
                                                   std::move(encoded.trace));
  }
  return Status::OK();
}

Status IsobarStreamWriter::Poison(Status status) {
  if (!status.ok() && error_status_.ok()) {
    error_status_ = status;
    // The dropped record leaves a hole no later write can fill; retire
    // (and discard) whatever is still in flight so a retried Finish()
    // cannot silently append the chunks that followed the failure.
    for (auto& record : in_flight_) record.wait();
    in_flight_.clear();
    pool_.reset();
  }
  return status;
}

Status IsobarStreamWriter::Append(ByteSpan data) {
  ISOBAR_RETURN_NOT_OK(init_status_);
  ISOBAR_RETURN_NOT_OK(error_status_);
  if (finished_) {
    return Status::InvalidArgument("stream writer already finished");
  }
  Stopwatch timer;
  stats_.input_bytes += data.size();

  const size_t chunk_bytes = options_.chunk_elements * width_;
  size_t consumed = 0;
  if (!pending_.empty()) {
    // Top the pending buffer up to one full chunk first.
    const size_t need = chunk_bytes - pending_.size();
    const size_t take = std::min(need, data.size());
    pending_.insert(pending_.end(), data.begin(), data.begin() + take);
    consumed = take;
    if (pending_.size() == chunk_bytes) {
      ISOBAR_RETURN_NOT_OK(Poison(EmitChunk(pending_)));
      pending_.clear();
    }
  }
  // Emit full chunks straight from the caller's buffer (no copy).
  while (data.size() - consumed >= chunk_bytes) {
    ISOBAR_RETURN_NOT_OK(Poison(EmitChunk(data.subspan(consumed, chunk_bytes))));
    consumed += chunk_bytes;
  }
  pending_.insert(pending_.end(), data.begin() + consumed, data.end());
  stats_.total_seconds += timer.ElapsedSeconds();
  return Status::OK();
}

Status IsobarStreamWriter::Finish() {
  ISOBAR_RETURN_NOT_OK(init_status_);
  ISOBAR_RETURN_NOT_OK(error_status_);
  if (finished_) return Status::OK();
  Stopwatch timer;
  if (pending_.size() % width_ != 0) {
    // Not poisoned: nothing was dropped, and the caller can complete the
    // element with a further Append() and Finish() again.
    return Status::InvalidArgument(
        "stream ends mid-element: appended bytes are not a multiple of the "
        "element width");
  }
  if (!pending_.empty()) {
    ISOBAR_RETURN_NOT_OK(Poison(EmitChunk(pending_)));
    pending_.clear();
  }
  // A stream with no data at all still needs a valid (empty) container.
  ISOBAR_RETURN_NOT_OK(Poison(EnsurePipeline({})));
  // Retire the pipelined tail before sealing the stream.
  while (!in_flight_.empty()) {
    ISOBAR_RETURN_NOT_OK(Poison(DrainOne()));
  }
  if (pool_ != nullptr) pool_->PublishStats();
  pool_.reset();
  if (options_.container_version >= container::kVersion) {
    // Seal the stream with the chunk-index footer. The trailer carries the
    // element total the sentinel header could not: a reader of the streamed
    // container gets counted-container semantics from the footer alone.
    Bytes footer;
    container::AppendFooter(index_entries_, elements_indexed_, &footer);
    ISOBAR_RETURN_NOT_OK(Poison(sink_->Write(footer)));
    stats_.output_bytes += footer.size();
  }
  finished_ = true;
  stats_.total_seconds += timer.ElapsedSeconds();
  telemetry::TraceRecorder::Global().EndPipeline(
      trace_id_, stats_.input_bytes, stats_.output_bytes, header_bytes_);
  return Status::OK();
}

IsobarStreamReader::IsobarStreamReader(ByteSpan container_bytes,
                                       DecompressOptions options)
    : container_(container_bytes), options_(options) {}

Status IsobarStreamReader::Init() {
  ISOBAR_ASSIGN_OR_RETURN(header_, container::ParseHeader(container_, &offset_));
  ISOBAR_ASSIGN_OR_RETURN(codec_, GetCodec(header_.codec));
  // A streamed container's header holds sentinel totals; a valid footer
  // supplies the real ones, so end-of-stream accounting (and SeekToChunk
  // bounds) work as on a counted container.
  ISOBAR_RETURN_NOT_OK(ResolveChunkIndex(
      container_, options_.on_chunk_error != ChunkErrorPolicy::kFail,
      &header_, &footer_));
  initialized_ = true;
  return Status::OK();
}

Result<bool> IsobarStreamReader::AtEnd() {
  if (!initialized_) {
    return Status::InvalidArgument("reader not initialized (call Init)");
  }
  // A destroyed record framing ends the stream early under a salvaging
  // policy; the loss is documented in report_.truncated_tail.
  if (tail_lost_) return true;
  const bool salvage =
      options_.on_chunk_error != ChunkErrorPolicy::kFail;
  const bool counted = header_.chunk_count != container::kUnknownCount;
  const bool done = counted ? chunks_read_ == header_.chunk_count
                            : offset_ == footer_.payload_end;
  if (!done) return false;
  if (offset_ != footer_.payload_end) {
    if (!salvage) {
      return Status::Corruption("container: trailing bytes after last chunk");
    }
    if (offset_ < footer_.payload_end) {
      report_.trailing_bytes = footer_.payload_end - offset_;
    }
    return true;
  }
  // Skipped chunks contribute their (header-declared) element counts, so
  // the total stays verifiable even for seek-style access patterns. When
  // chunks were salvaged the totals expectedly disagree; the report
  // already names what was lost.
  if (header_.element_count != container::kUnknownCount &&
      elements_read_ != header_.element_count &&
      !(salvage && !report_.damaged.empty())) {
    return Status::Corruption("container: element count mismatch");
  }
  return true;
}

bool IsobarStreamReader::SalvageDamagedChunk(
    const container::ChunkHeader& chunk_header, bool framed, uint64_t index,
    size_t record_offset, ChunkFailureStage stage, const Status& error,
    Bytes* chunk) {
  const uint64_t output_offset = elements_read_ * header_.width;
  if (!framed) {
    // The record no longer delimits itself: nothing after it is reachable.
    // Unlike a batch read, the stream does not count the lost tail as a
    // skipped or zero-filled chunk.
    static telemetry::Counter& salvaged =
        telemetry::GetCounter("pipeline.chunks_salvaged");
    salvaged.Increment();
    ChunkSalvageRecord record;
    record.chunk_index = index;
    record.byte_offset = record_offset;
    record.element_count = chunk_header.element_count;
    record.output_offset = output_offset;
    record.stage = stage;
    record.action = options_.on_chunk_error;
    record.error = error;
    report_.damaged.push_back(std::move(record));
    tail_lost_ = true;
    report_.truncated_tail = true;
    return false;
  }
  // An element count above the container's nominal chunk size is itself
  // corrupt; assume a full chunk, the shape of every record but the last.
  const uint64_t assumed_elements =
      std::min<uint64_t>(chunk_header.element_count, header_.chunk_elements);
  RecordSalvageEntry(&report_, index, record_offset,
                     chunk_header.element_count, stage,
                     options_.on_chunk_error, error, output_offset,
                     assumed_elements * header_.width);
  ++report_.chunks_total;
  ++chunks_read_;
  elements_read_ += assumed_elements;
  if (options_.on_chunk_error != ChunkErrorPolicy::kZeroFill) return false;
  chunk->assign(static_cast<size_t>(assumed_elements * header_.width), 0);
  return true;
}

Result<bool> IsobarStreamReader::NextChunk(Bytes* chunk) {
  const bool salvage = options_.on_chunk_error != ChunkErrorPolicy::kFail;
  for (;;) {
    ISOBAR_ASSIGN_OR_RETURN(const bool done, AtEnd());
    if (done) return false;
    chunk->clear();
    const uint64_t index = chunks_read_;
    const size_t record_offset = offset_;
    ChunkFailureStage stage = ChunkFailureStage::kHeader;
    container::ChunkHeader chunk_header;
    const Status status = DecodeChunk(
        container_, &offset_, *codec_, header_.linearization, header_.width,
        header_.chunk_elements, options_.verify_checksums, chunk, nullptr,
        index, &stage, &chunk_header, &ScratchArena::ThreadLocal(),
        container::RawSectionLinearization(header_.version));
    if (status.ok()) {
      ++chunks_read_;
      ++report_.chunks_total;
      ++report_.chunks_recovered;
      report_.bytes_recovered += chunk->size();
      elements_read_ += chunk->size() / header_.width;
      return true;
    }
    if (!salvage) return status;
    // `framed`: DecodeChunk advanced past the record, so the stream can
    // continue at the next one.
    const bool framed = offset_ != record_offset;
    if (SalvageDamagedChunk(chunk_header, framed, index, record_offset,
                            stage, status, chunk)) {
      return true;  // zero-filled stand-in chunk
    }
    // Skipped (or tail lost): poll the next record / end-of-stream.
  }
}

Result<bool> IsobarStreamReader::SkipChunk() {
  const bool salvage = options_.on_chunk_error != ChunkErrorPolicy::kFail;
  ISOBAR_ASSIGN_OR_RETURN(const bool done, AtEnd());
  if (done) return false;
  const uint64_t index = chunks_read_;
  const size_t record_offset = offset_;
  auto parsed = container::ParseChunkHeader(container_, &offset_);
  if (!parsed.ok()) {
    const Status annotated =
        AnnotateChunkError(parsed.status(), index, record_offset);
    if (!salvage) return annotated;
    Bytes unused;
    SalvageDamagedChunk(container::ChunkHeader{}, /*framed=*/false, index,
                        record_offset, ChunkFailureStage::kHeader, annotated,
                        &unused);
    return false;
  }
  const container::ChunkHeader chunk_header = *parsed;
  offset_ += chunk_header.compressed_size + chunk_header.raw_size;
  // Validate before the declared count enters the running element total:
  // a corrupt skipped record must not make the end-of-stream accounting
  // pass (or fail) arbitrarily. The second clause guards the running total
  // itself against uint64 wrap-around — the same checked-arithmetic rule
  // the batch decoder applies to element_count * width.
  if (chunk_header.element_count > header_.chunk_elements ||
      chunk_header.element_count >
          std::numeric_limits<uint64_t>::max() - elements_read_) {
    const Status annotated = AnnotateChunkError(
        Status::Corruption("container: chunk claims more elements than the "
                           "header's chunk size"),
        index, record_offset);
    if (!salvage) return annotated;
    Bytes unused;
    SalvageDamagedChunk(chunk_header, /*framed=*/true, index, record_offset,
                        ChunkFailureStage::kHeader, annotated, &unused);
    return true;
  }
  ++chunks_read_;
  ++report_.chunks_total;
  elements_read_ += chunk_header.element_count;
  return true;
}

Status IsobarStreamReader::SeekToChunk(uint64_t n) {
  if (!initialized_) {
    return Status::InvalidArgument("reader not initialized (call Init)");
  }
  static telemetry::Counter& index_seeks =
      telemetry::GetCounter("pipeline.index_seeks");
  static telemetry::Counter& sequential_seeks =
      telemetry::GetCounter("pipeline.sequential_seeks");
  if (footer_.have_index) {
    if (n > footer_.index.entries.size()) {
      return Status::InvalidArgument("seek beyond the container's chunk count");
    }
    if (n == footer_.index.entries.size()) {
      offset_ = footer_.payload_end;
      elements_read_ = footer_.index.element_count;
    } else {
      offset_ =
          static_cast<size_t>(footer_.index.entries[n].record_offset);
      elements_read_ = footer_.index.entries[n].element_offset;
    }
    chunks_read_ = n;
    tail_lost_ = false;
    index_seeks.Increment();
    return Status::OK();
  }
  if (header_.chunk_count != container::kUnknownCount &&
      n > header_.chunk_count) {
    return Status::InvalidArgument("seek beyond the container's chunk count");
  }
  if (n < chunks_read_) {
    // Rewind to the first record. The salvage report restarts with the
    // rewound position so records re-examined on the way forward are not
    // double-counted.
    offset_ = container::kHeaderSize;
    chunks_read_ = 0;
    elements_read_ = 0;
    tail_lost_ = false;
    report_ = SalvageReport{};
  }
  while (chunks_read_ < n) {
    ISOBAR_ASSIGN_OR_RETURN(const bool advanced, SkipChunk());
    if (!advanced) {
      return Status::InvalidArgument("seek beyond the container's chunk count");
    }
  }
  sequential_seeks.Increment();
  return Status::OK();
}

}  // namespace isobar
