#ifndef ISOBAR_CORE_CHUNK_CODEC_H_
#define ISOBAR_CORE_CHUNK_CODEC_H_

#include "compressors/codec.h"
#include "core/analyzer.h"
#include "core/container.h"
#include "core/isobar.h"
#include "linearize/transpose.h"
#include "telemetry/trace_export.h"
#include "util/bytes.h"
#include "util/scratch_arena.h"
#include "util/status.h"

namespace isobar {

/// Shared per-chunk pipeline of Alg. 1, used by both the batch
/// IsobarCompressor and the streaming writer/reader.

/// The EUPA phase (§II.C) of both writers: picks the (solver ×
/// linearization) pipeline once per dataset. The analyzer's verdict on
/// `probe` decides which byte-columns the candidates are measured on, and
/// the selector samples `data`. Forced choices skip the trials — the
/// ISOBAR_FORCE_CODEC hook pins the solver unless the caller already did —
/// and empty data falls back to the configured defaults.
/// `*analysis_seconds` accumulates the probe and the selection trials.
Result<EupaDecision> ChoosePipeline(const CompressOptions& options,
                                    ByteSpan probe, ByteSpan data,
                                    size_t width, double* analysis_seconds);

/// Opens a pipeline trace for a freshly made EUPA decision and records the
/// candidate evidence; returns 0 when tracing is off.
uint64_t BeginPipelineTrace(const EupaDecision& decision, size_t width);

/// Analyzes, partitions, and solver-compresses one chunk, appending its
/// container record ([chunk header][solver bytes][raw noise bytes]) to
/// `*out`. Timing and verdict fields of `*stats` are accumulated (may be
/// null). When `trace_pipeline_id` is nonzero and tracing is on, a
/// telemetry::ChunkTrace record (verdict, partition map, stage timings,
/// byte accounting) is appended to that pipeline's trace — unless
/// `trace_out` is non-null, in which case the record is written there
/// instead of into the global recorder. Parallel pipelines use the
/// out-param so a single writer can stitch worker-produced traces back
/// into chunk order. When `arena` is non-null its slots back the gather /
/// raw / compressed temporaries, so a worker encoding many chunks reuses
/// the same steady-state allocations instead of reallocating per chunk.
/// `chunk_ordinal` is the chunk's 0-based position in its pipeline, used
/// only to tag the chunk's timeline events (so a trace viewer can follow
/// one chunk across workers); it does not affect the encoding.
/// `raw_linearization` is the container-version-dependent layout of the
/// record's raw (incompressible) section — kRow for v1, kColumn for v2
/// (see container::RawSectionLinearization); encoder and decoder must
/// agree on it for a given record.
Status EncodeChunk(const Analyzer& analyzer, const Codec& codec,
                   Linearization linearization, ByteSpan chunk, size_t width,
                   Bytes* out, CompressionStats* stats,
                   uint64_t trace_pipeline_id = 0,
                   telemetry::ChunkTrace* trace_out = nullptr,
                   ScratchArena* arena = nullptr, uint64_t chunk_ordinal = 0,
                   Linearization raw_linearization = Linearization::kRow);

/// Prefixes a failed `status` with the failing record's position —
/// "chunk 17 (container offset 123456): ..." — so corruption reports name
/// the record to inspect on storage. OK statuses pass through untouched.
Status AnnotateChunkError(const Status& status, uint64_t chunk_index,
                          uint64_t byte_offset);

/// What the v2 chunk-index footer lookup found.
struct ChunkIndexResolution {
  bool have_index = false;
  container::ChunkIndex index;  ///< Valid when have_index.
  /// Where chunk records end: the footer's start when the index is valid,
  /// the container's end otherwise.
  size_t payload_end = 0;
};

/// Parses the v2 chunk-index footer (a no-op on v1 containers), adopting
/// its totals into `*header` (streamed containers carry sentinels in the
/// file header) and bounding the record walk at the footer's start. A
/// damaged footer is an error unless `salvage` is set; a salvaging reader
/// then walks the records sequentially over the whole buffer and the
/// footer region surfaces as trailing damage. Shared by every batch read
/// and by IsobarStreamReader.
Status ResolveChunkIndex(ByteSpan container_bytes, bool salvage,
                         container::Header* header,
                         ChunkIndexResolution* resolution);

/// Appends a damaged-chunk entry to `report` (when non-null) and, for the
/// salvaging policies, bumps the salvage telemetry counters and the
/// report's skipped or zero-filled chunk count. With action kFail the
/// entry only documents the chunk that aborted the decode.
void RecordSalvageEntry(SalvageReport* report, uint64_t chunk_index,
                        uint64_t byte_offset, uint64_t element_count,
                        ChunkFailureStage stage, ChunkErrorPolicy action,
                        const Status& error, uint64_t output_offset,
                        uint64_t lost_bytes);

/// Snapshots the most recent timeline events into a damaged `report`
/// (no-op without a report, on a clean one, or with the timeline off).
/// Called the moment damage is established, so the window shows what
/// every thread was doing when the decode went wrong.
void CaptureFlightRecorder(SalvageReport* report);

/// Parses the chunk record at `*offset` in `container_bytes`, reverses the
/// pipeline, and appends the reconstructed elements to `*out`, advancing
/// `*offset` past the record. `max_elements` is the container header's
/// nominal chunk size; a record claiming more elements is corrupt (the
/// bound keeps untrusted counts from driving allocations). Per-stage
/// timing fields of `*stats` are accumulated (may be null).
///
/// `chunk_index` is only used to annotate error messages with the failing
/// record's position. On failure `*failed_stage` (when non-null) reports
/// which decode stage rejected the record. Whether the record's extent was
/// established is signalled by `*offset`: when it did not move the framing
/// is destroyed and nothing past the record is reachable; when it advanced
/// past the damaged record (element-count, payload, and checksum failures)
/// the caller may salvage the chunks that follow. On header/element-count
/// failures `*out`
/// is untouched; on payload/checksum failures the appended bytes are
/// truncated back off before returning. `*header_out` (when non-null) is
/// filled with the parsed chunk header as soon as parsing succeeds, even
/// when a later stage rejects the record — salvage callers use it to
/// account for the damaged chunk's declared shape.
Status DecodeChunk(ByteSpan container_bytes, size_t* offset,
                   const Codec& codec, Linearization linearization,
                   size_t width, uint64_t max_elements, bool verify_checksums,
                   Bytes* out, DecompressionStats* stats = nullptr,
                   uint64_t chunk_index = 0,
                   ChunkFailureStage* failed_stage = nullptr,
                   container::ChunkHeader* header_out = nullptr,
                   ScratchArena* arena = nullptr,
                   Linearization raw_linearization = Linearization::kRow);

/// Folds a stats contribution covering `chunk.chunk_count` chunks into a
/// pipeline total, in chunk order. mean_htc_fraction merges weighted by
/// chunk count; for single-chunk contributions the arithmetic reduces to
/// the same incremental running-mean update EncodeChunk applies in place,
/// so totals merged from per-worker stats are bit-identical to the serial
/// path's for every thread count.
void MergeChunkStats(const CompressionStats& chunk, CompressionStats* total);

/// The payload half of DecodeChunk: reverses one already-parsed chunk
/// record into `dest`, which must be exactly
/// `chunk_header.element_count * width` bytes. `compressed_section` and
/// `raw_section` are the record's two payload slices (the caller advanced
/// past them using the header's sizes). Decode/scatter timing fields of
/// `*stats` are accumulated (may be null). Writes only through `dest`, so
/// independent chunk records can be decoded concurrently into disjoint
/// regions of one output buffer. On failure `dest` may hold partially
/// scattered bytes (salvage callers re-zero it) and `*failed_stage` (when
/// non-null) reports whether the payload or its checksum was rejected.
/// When `arena` is non-null its kDecoded slot backs the solver's output
/// buffer (cleared before use), amortizing the allocation across chunks.
/// `chunk_ordinal` tags the chunk's timeline events only.
Status DecodeChunkPayload(const container::ChunkHeader& chunk_header,
                          ByteSpan compressed_section, ByteSpan raw_section,
                          const Codec& codec, Linearization linearization,
                          size_t width, bool verify_checksums,
                          MutableByteSpan dest,
                          DecompressionStats* stats = nullptr,
                          ChunkFailureStage* failed_stage = nullptr,
                          ScratchArena* arena = nullptr,
                          uint64_t chunk_ordinal = 0,
                          Linearization raw_linearization = Linearization::kRow);

/// The column-read counterpart of DecodeChunkPayload: materializes only
/// the byte-columns in `column_mask` (bit j = column j) of one parsed
/// record, without the full scatter. Column c's element_count bytes go to
/// `planes + p * plane_stride`, where p is c's rank among the requested
/// columns. Planes the partitioner stored raw are copied straight off the
/// raw section — one memcpy each when `raw_linearization` is kColumn (v2),
/// a strided gather for the v1 row layout — and need no solver work;
/// solver-held planes decode the packed section once (into the arena's
/// kDecoded slot; `arena` must be non-null) and are projected out of it.
/// `*served_mask` receives the columns written, which on a failed solver
/// decode are the raw ones: a partial failure still serves them. Every
/// failure is a payload-stage failure. Per-chunk CRCs cover the whole
/// reconstructed chunk, so nothing is verified here. Writes only through
/// the planes, so records can be projected concurrently.
Status ProjectChunkColumns(const container::ChunkHeader& chunk_header,
                           ByteSpan compressed_section, ByteSpan raw_section,
                           const Codec& codec, Linearization linearization,
                           size_t width, uint64_t column_mask,
                           uint8_t* planes, size_t plane_stride,
                           uint64_t* served_mask, DecompressionStats* stats,
                           ScratchArena* arena, uint64_t chunk_ordinal,
                           Linearization raw_linearization);

}  // namespace isobar

#endif  // ISOBAR_CORE_CHUNK_CODEC_H_
