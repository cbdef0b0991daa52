// Helpers of the relborg benchmark: the percentile rule, the benchmark's own
// span recorder with self-time accounting, the rule that maps a snapshot
// watermark to the stream batches it covers, and the comparisons the
// correctness gates apply. Kept apart from the workloads so the self-tests
// (selftest.cc) exercise exactly the code the workloads run.
#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ivm/update_stream.h"
#include "ring/covariance.h"

namespace perfbench {

// --- Percentiles from raw samples -----------------------------------------

struct Quantile {
  double value = 0;
  double percentile = 0;  // the percentile actually reported
  size_t samples = 0;     // samples it was taken from (per repetition)
  size_t reps = 1;        // repetitions whose quantiles were combined
};

// Nearest-rank percentile p (0 < p <= 100) of `samples`: the smallest value
// with at least p% of the samples at or below it. NaN when empty.
Quantile NearestRank(std::vector<double> samples, double p);

// The tail percentile `samples` values support: the highest of p99 / p90
// that has at least ten samples strictly beyond its rank, else p50 (with
// fewer than 20 samples not even p50 has ten beyond; the sample count
// printed next to it tells the reader how little backs it).
double TailPercentile(size_t samples);

// The median over repetitions of each repetition's p50 (tail = false) or
// tail percentile (tail = true; the percentile the smallest repetition
// supports, so every repetition reports the same one). A run's quantile
// then does not hinge on its single slowest repetition.
Quantile MedianOverReps(const std::vector<std::vector<double>>& reps,
                        bool tail);

// Median of a run's per-repetition values (each already a number, e.g. one
// rep's p50); NaN when empty.
double MedianOf(std::vector<double> values);

// "p99 of 1691", or "p99 of >= 1330, median of 12 reps" — the label printed
// next to every quantile.
std::string QuantileLabel(const Quantile& q);

// A bounded, evenly spaced subsample of a sample stream: every stride-th
// sample is kept, and when `capacity` samples are held every other one is
// dropped and the stride doubles. Closed-loop readers produce millions of
// reads per second; this keeps their raw samples (and the process's memory)
// bounded without favouring early or late samples.
class SampleBuffer {
 public:
  explicit SampleBuffer(size_t capacity = 1 << 16) : capacity_(capacity) {}
  void Add(double x) {
    if (seen_++ % stride_ != 0) return;
    kept_.push_back(x);
    if (kept_.size() >= capacity_) {
      for (size_t i = 0; 2 * i < kept_.size(); ++i) kept_[i] = kept_[2 * i];
      kept_.resize((kept_.size() + 1) / 2);
      stride_ *= 2;
    }
  }
  const std::vector<double>& samples() const { return kept_; }

 private:
  size_t capacity_;
  size_t stride_ = 1;
  size_t seen_ = 0;
  std::vector<double> kept_;
};

// --- Spans ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // a string literal: spans are kept by the million
  double start = 0;  // seconds since the recorder's origin
  double end = 0;
  int parent = -1;   // index into the same recorder's spans, -1 at top
};

// Spans of ONE thread. Begin/End nest as a stack: a span's parent is the
// span open when it began. A disabled recorder records nothing, so the
// untraced path costs one branch per call site.
class SpanRecorder {
 public:
  SpanRecorder(std::string thread, Clock::time_point origin, bool enabled)
      : thread_(std::move(thread)), origin_(origin), enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

  int Begin(const char* name);
  void End(int id);

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  std::string thread_;
  Clock::time_point origin_;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec->enabled() ? rec->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

// Self time of every span: its duration minus the part of [start, end] that
// the union of its children's intervals covers. Overlapping children are
// counted once, and child time outside the parent's interval is ignored.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

struct SpanSummary {
  std::string name;
  size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

// Per span name, in order of first appearance across `recorders`.
std::vector<SpanSummary> Summarize(
    const std::vector<const SpanRecorder*>& recorders);

// Writes every span as one tab-separated line:
// thread, id, parent, name, start_us, end_us, self_us. Returns false on an
// I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders);

// --- Freshness: which batches a watermark covers ---------------------------

// Per stream batch: the node it feeds and that node's cumulative row count
// once the batch has been appended (deletes append rows too).
struct BatchMark {
  int node = -1;
  size_t rows_through = 0;
  bool empty = true;
};
std::vector<BatchMark> MarkBatches(const std::vector<relborg::UpdateBatch>& s,
                                   int num_nodes);

// One observed horizon: the time a snapshot (or maintained epoch) became
// visible and its per-node committed-row watermark.
struct Observation {
  double time = 0;
  std::vector<size_t> watermark;
};

// For every batch, the time of the earliest observation whose watermark
// covers it — watermark[node] >= rows_through — or NaN if none does.
// Empty batches carry no rows to be fresh about and get NaN as well.
// Observations may come from several readers in any order.
std::vector<double> FirstCoverTimes(const std::vector<BatchMark>& marks,
                                    std::vector<Observation> observations);

// --- Correctness comparisons ----------------------------------------------

// "" when `got` and `want` are bit-for-bit identical (count, sums and second
// moments), else a description of the first difference.
std::string CompareCovarBitwise(const relborg::CovarMatrix& got,
                                const relborg::CovarMatrix& want);

// "" when every moment of `got` matches `want` within `rtol` relative to
// max(1, |want|), else the first moment outside it.
std::string CompareCovarWithin(const relborg::CovarMatrix& got,
                               const relborg::CovarMatrix& want, double rtol);

// "" when the two coefficient vectors agree within `rtol` relative to
// max(1, |want|) element-wise.
std::string CompareVectorsWithin(const std::vector<double>& got,
                                 const std::vector<double>& want, double rtol);

// --- Process and host ------------------------------------------------------

// VmHWM of this process in MiB (0 if /proc is unreadable).
double PeakRssMb();

// First "model name" of /proc/cpuinfo, or "unknown".
std::string CpuModel();

// Escapes a string for a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_
