#include "core/analyzer.h"

#include <cmath>

#include "linearize/transpose.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace isobar {

Status ValidateAnalyzerOptions(const AnalyzerOptions& options) {
  // Written as !(in-range) so NaN — for which both ordered comparisons
  // are false — fails the check instead of sailing through it.
  if (!(options.tau >= 1.0 && options.tau <= 256.0) ||
      !std::isfinite(options.tau)) {
    return Status::InvalidArgument("tau must be a finite value in [1, 256]");
  }
  return Status::OK();
}

int AnalysisResult::compressible_columns() const {
  return __builtin_popcountll(compressible_mask & FullMask(width));
}

double AnalysisResult::htc_byte_fraction() const {
  if (width == 0) return 0.0;
  return 1.0 - static_cast<double>(compressible_columns()) /
                   static_cast<double>(width);
}

bool AnalysisResult::improvable() const {
  const int k = compressible_columns();
  return k > 0 && k < static_cast<int>(width);
}

Analyzer::Analyzer(AnalyzerOptions options) : options_(options) {}

Result<AnalysisResult> Analyzer::Analyze(ByteSpan data, size_t width) const {
  if (width == 0 || width > 64) {
    return Status::InvalidArgument("element width must be in [1, 64]");
  }
  if (data.empty() || data.size() % width != 0) {
    return Status::InvalidArgument(
        "data must be a non-empty multiple of the element width");
  }
  telemetry::ScopedSpan span("chunk.analyze");
  static telemetry::Counter& calls = telemetry::GetCounter("analyzer.calls");
  static telemetry::Counter& bytes = telemetry::GetCounter("analyzer.bytes");
  calls.Increment();
  bytes.Add(data.size());

  // One histogram set per worker thread: ResetWidth clears the counters but
  // keeps the allocation, so steady-state analysis never touches the heap.
  thread_local ColumnHistogramSet histograms(1);
  histograms.ResetWidth(width);
  ISOBAR_RETURN_NOT_OK(histograms.Update(data));
  Result<AnalysisResult> result = Classify(histograms);
  if (result.ok()) {
    static telemetry::Counter& improvable =
        telemetry::GetCounter("analyzer.improvable_verdicts");
    static telemetry::Counter& undetermined =
        telemetry::GetCounter("analyzer.undetermined_verdicts");
    (result->improvable() ? improvable : undetermined).Increment();
  }
  return result;
}

Result<AnalysisResult> Analyzer::Classify(
    const ColumnHistogramSet& histograms) const {
  ISOBAR_RETURN_NOT_OK(ValidateAnalyzerOptions(options_));
  if (histograms.element_count() == 0) {
    return Status::InvalidArgument("no elements accumulated");
  }

  AnalysisResult result;
  result.width = histograms.width();
  result.element_count = histograms.element_count();
  result.column_entropy.resize(result.width);

  // Tolerance level τ·N/256 (§II.A). A column whose most frequent byte
  // value does not rise above this level looks uniform to an entropy coder.
  const double tolerance =
      options_.tau * static_cast<double>(result.element_count) / 256.0;

  for (size_t j = 0; j < result.width; ++j) {
    result.column_entropy[j] = histograms.ColumnEntropy(j);
    const double max_freq = static_cast<double>(histograms.MaxFrequency(j));
    if (max_freq > tolerance) {
      result.compressible_mask |= 1ull << j;
    }
  }
  return result;
}

}  // namespace isobar
