// Self-tests of the benchmark's own helpers (bench_lib.h): the percentile
// rule, self time on nested spans, the watermark-to-batch coverage rule on a
// hand-built stream, and the correctness gate rejecting a perturbed
// reference. Prints one line per failed check and exits non-zero if any
// failed.
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_lib.h"
#include "ring/covariance.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL %s\n", what.c_str());
    ++failures;
  }
}

bool Near(double a, double b) { return std::abs(a - b) <= 1e-12; }

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

// One repetition's p50 or tail quantile.
Quantile One(std::vector<double> samples, bool tail) {
  return MedianOverReps({std::move(samples)}, tail);
}

void TestPercentileRule() {
  // 1000 samples: p99 has exactly 10 samples beyond it (991..1000).
  Quantile q = One(Iota(1000), true);
  Expect(q.percentile == 99 && q.value == 990 && q.samples == 1000,
         "p99 of 1..1000 is 990");
  // 999 samples: p99's rank is 990, leaving 9 beyond; p90 qualifies.
  q = One(Iota(999), true);
  Expect(q.percentile == 90 && q.value == 900, "999 samples fall to p90");
  // 100 samples: p90 leaves exactly 10 beyond.
  q = One(Iota(100), true);
  Expect(q.percentile == 90 && q.value == 90, "p90 of 1..100 is 90");
  // 99 samples: only p50 qualifies.
  q = One(Iota(99), true);
  Expect(q.percentile == 50 && q.value == 50, "99 samples fall to p50");
  // Too few samples for any percentile: the median with its count.
  q = One(Iota(7), true);
  Expect(q.percentile == 50 && q.value == 4 && q.samples == 7,
         "7 samples report the median");
  Expect(One(Iota(4), false).value == 2, "nearest-rank median of 1..4 is 2");
  Expect(std::isnan(One({}, false).value), "empty median is NaN");
  Expect(QuantileLabel(One(Iota(1000), true)) == "p99 of 1000", "label");
  // The tail never exceeds the observed maximum.
  std::vector<double> skew(2000, 1.0);
  skew.back() = 1e9;
  Expect(One(skew, true).value == 1.0, "tail stays within the samples");
  Expect(MedianOf({3, 1, 2, 10}) == 2.5, "MedianOf averages the middle pair");

  // Across repetitions: each rep's quantile at the percentile the smallest
  // rep supports, then their median; one slow rep does not move it.
  std::vector<double> slow = Iota(1000);
  for (double& x : slow) x *= 100;
  q = MedianOverReps({Iota(1000), Iota(1200), slow}, true);
  Expect(q.percentile == 99 && q.value == 1188 && q.samples == 1000 &&
             q.reps == 3,
         "median over reps of per-rep p99");
  q = MedianOverReps({Iota(1000), Iota(999)}, true);
  Expect(q.percentile == 90 && q.value == 900,
         "the smallest rep picks the percentile");
  Expect(QuantileLabel(q) == "p90 of >= 999, median of 2 reps", "rep label");

  // The sample buffer keeps an evenly spaced subsample within its capacity.
  SampleBuffer buf(8);
  for (int i = 0; i < 100; ++i) buf.Add(i);
  const std::vector<double>& kept = buf.samples();
  Expect(kept.size() < 8 && kept.size() >= 4,
         "sample buffer stays within capacity");
  bool even = true;
  for (size_t i = 1; i < kept.size(); ++i) {
    even = even && kept[i] - kept[i - 1] == kept[1] - kept[0];
  }
  Expect(even && kept[0] == 0, "sample buffer keeps every stride-th sample");
}

void TestSelfTime() {
  // root [0,10] with children a [1,4] and b [3,6] (overlapping) and c
  // [8,12] (runs past the root's end); a has a child [2,3].
  std::vector<Span> spans = {
      {"root", 0, 10, -1}, {"a", 1, 4, 0},  {"b", 3, 6, 0},
      {"c", 8, 12, 0},     {"a1", 2, 3, 1},
  };
  const std::vector<double> self = SelfTimes(spans);
  // root: children cover [1,6] and [8,10] = 7, self 3.
  Expect(Near(self[0], 3), "root self time counts overlap once");
  Expect(Near(self[1], 2), "a self time excludes its child");
  Expect(Near(self[2], 3), "b has no children");
  Expect(Near(self[3], 4), "c has no children");
  Expect(Near(self[4], 1), "leaf self time is its duration");

  // The recorder nests by stack order and sums per name.
  SpanRecorder rec("t", Clock::now(), true);
  {
    ScopedSpan outer(&rec, "outer");
    { ScopedSpan inner(&rec, "inner"); }
    { ScopedSpan inner(&rec, "inner"); }
  }
  Expect(rec.spans().size() == 3 && rec.spans()[1].parent == 0 &&
             rec.spans()[2].parent == 0 && rec.spans()[0].parent == -1,
         "recorder parents");
  const std::vector<SpanSummary> sum = Summarize({&rec});
  Expect(sum.size() == 2 && sum[0].name == "outer" && sum[1].count == 2,
         "summary groups by name");
  Expect(sum[0].self_s <= sum[0].total_s + 1e-12 &&
             sum[0].self_s >= sum[0].total_s - sum[1].total_s - 1e-9,
         "outer self = total minus children");
  SpanRecorder off("t", Clock::now(), false);
  { ScopedSpan s(&off, "x"); }
  Expect(off.spans().empty(), "disabled recorder records nothing");
}

relborg::UpdateBatch Batch(int node, size_t rows) {
  relborg::UpdateBatch b;
  b.node = node;
  b.rows.assign(rows, std::vector<double>{1.0});
  return b;
}

void TestCoverage() {
  // Node 0 gets batches of 3, 2 and (empty) 0 rows; node 1 gets 4 then 1.
  const std::vector<relborg::UpdateBatch> stream = {
      Batch(0, 3), Batch(1, 4), Batch(0, 2), Batch(0, 0), Batch(1, 1)};
  const std::vector<BatchMark> marks = MarkBatches(stream, 2);
  Expect(marks[0].rows_through == 3 && marks[2].rows_through == 5 &&
             marks[3].rows_through == 5 && marks[3].empty &&
             marks[4].rows_through == 5,
         "cumulative per-node rows");
  // Observations out of time order, from two readers; a watermark that
  // covers only part of a batch does not cover it.
  std::vector<Observation> obs = {
      {5.0, {5, 5}},
      {1.0, {2, 0}},   // partial: covers nothing
      {2.0, {3, 4}},   // covers batches 0 and 1
      {3.0, {4, 4}},   // partial on node 0
      {4.0, {5, 4}},   // covers batch 2
  };
  const std::vector<double> t = FirstCoverTimes(marks, obs);
  Expect(t[0] == 2.0, "batch 0 first covered at t=2");
  Expect(t[1] == 2.0, "batch 1 first covered at t=2");
  Expect(t[2] == 4.0, "batch 2 first covered at t=4");
  Expect(std::isnan(t[3]), "empty batch has no freshness");
  Expect(t[4] == 5.0, "batch 4 first covered at t=5");
  // A stream never fully covered leaves NaN for the rest.
  const std::vector<double> u = FirstCoverTimes(marks, {{1.0, {3, 4}}});
  Expect(u[0] == 1.0 && u[1] == 1.0 && std::isnan(u[2]) && std::isnan(u[4]),
         "uncovered batches stay NaN");
}

void TestGateRejectsPerturbedReference() {
  relborg::CovarPayload p = relborg::CovarPayload::Zero(2);
  p.count = 10;
  p.sum = {1.5, -2.25};
  p.quad = {3.0, 0.125, 7.0};
  const relborg::CovarMatrix got(2, p);
  Expect(CompareCovarBitwise(got, relborg::CovarMatrix(2, p)).empty(),
         "identical payloads pass the bitwise gate");
  relborg::CovarPayload q = p;
  q.quad[1] = std::nextafter(q.quad[1], 1.0);  // one ulp
  Expect(!CompareCovarBitwise(got, relborg::CovarMatrix(2, q)).empty(),
         "a one-ulp perturbation fails the bitwise gate");
  relborg::CovarPayload neg = relborg::CovarPayload::Zero(2);
  relborg::CovarPayload pos = relborg::CovarPayload::Zero(2);
  neg.sum[1] = -0.0;
  Expect(!CompareCovarBitwise(relborg::CovarMatrix(2, neg),
                              relborg::CovarMatrix(2, pos))
              .empty(),
         "the bitwise gate tells -0 from +0");
  Expect(CompareCovarWithin(got, relborg::CovarMatrix(2, q), 1e-9).empty(),
         "a one-ulp perturbation passes the tolerance gate");
  relborg::CovarPayload r = p;
  r.count = 10.001;
  Expect(!CompareCovarWithin(got, relborg::CovarMatrix(2, r), 1e-9).empty(),
         "a 1e-4 perturbation fails the tolerance gate");
  Expect(!CompareVectorsWithin({1.0, 2.0}, {1.0, 2.1}, 1e-5).empty(),
         "perturbed ridge weights fail");
  Expect(CompareVectorsWithin({1.0, 2.0}, {1.0, 2.0}, 1e-5).empty(),
         "equal ridge weights pass");
  Expect(!CompareVectorsWithin({std::nan("")}, {1.0}, 1e-5).empty(),
         "NaN never passes");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestSelfTime();
  perfbench::TestCoverage();
  perfbench::TestGateRejectsPerturbedReference();
  if (perfbench::failures > 0) {
    std::printf("%d self-test check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("selftest ok\n");
  return 0;
}
