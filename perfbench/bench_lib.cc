#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>

namespace perfbench {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Nearest rank of percentile `permille` / 10 among n samples, 1-based.
size_t RankOf(size_t n, int permille) {
  const size_t rank = (static_cast<size_t>(permille) * n + 999) / 1000;
  return std::max<size_t>(rank, 1);
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

}  // namespace

Quantile NearestRank(std::vector<double> samples, double p) {
  Quantile q;
  q.percentile = p;
  q.samples = samples.size();
  if (samples.empty()) {
    q.value = kNaN;
    return q;
  }
  const size_t rank = RankOf(samples.size(), static_cast<int>(p * 10 + 0.5));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  q.value = samples[rank - 1];
  return q;
}

double TailPercentile(size_t n) {
  for (int permille : {990, 900}) {
    if (n >= 10 && n - RankOf(n, permille) >= 10) return permille / 10.0;
  }
  return 50;
}

Quantile MedianOverReps(const std::vector<std::vector<double>>& reps,
                        bool tail) {
  Quantile q;
  q.reps = reps.size();
  q.percentile = 50;
  if (reps.empty()) {
    q.value = kNaN;
    return q;
  }
  q.samples = reps.front().size();
  for (const std::vector<double>& r : reps) {
    q.samples = std::min(q.samples, r.size());
  }
  if (tail) q.percentile = TailPercentile(q.samples);
  std::vector<double> values;
  for (const std::vector<double>& r : reps) {
    values.push_back(NearestRank(r, q.percentile).value);
  }
  q.value = MedianOf(values);
  return q;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return kNaN;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::string QuantileLabel(const Quantile& q) {
  char buf[96];
  if (q.reps == 1) {
    std::snprintf(buf, sizeof(buf), "p%g of %zu", q.percentile, q.samples);
  } else {
    std::snprintf(buf, sizeof(buf), "p%g of >= %zu, median of %zu reps",
                  q.percentile, q.samples, q.reps);
  }
  return buf;
}

int SpanRecorder::Begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = Now();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  spans_[id].end = Now();
  open_.pop_back();  // ScopedSpan closes spans in stack order
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].push_back({s.start, s.end});
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cur_lo = 0;
    double cur_hi = 0;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<SpanSummary> Summarize(
    const std::vector<const SpanRecorder*>& recorders) {
  std::vector<SpanSummary> out;
  std::map<std::string, size_t> index;
  for (const SpanRecorder* rec : recorders) {
    const std::vector<Span>& spans = rec->spans();
    const std::vector<double> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      auto [it, inserted] = index.emplace(spans[i].name, out.size());
      if (inserted) out.push_back(SpanSummary{spans[i].name, 0, 0, 0});
      SpanSummary& sum = out[it->second];
      sum.count++;
      sum.total_s += spans[i].end - spans[i].start;
      sum.self_s += self[i];
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tid\tparent\tname\tstart_us\tend_us\tself_us\n");
  for (const SpanRecorder* rec : recorders) {
    const std::vector<Span>& spans = rec->spans();
    const std::vector<double> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f, "%s\t%zu\t%d\t%s\t%.3f\t%.3f\t%.3f\n",
                   rec->thread().c_str(), i, spans[i].parent, spans[i].name,
                   spans[i].start * 1e6, spans[i].end * 1e6, self[i] * 1e6);
    }
  }
  return std::fclose(f) == 0;
}

std::vector<BatchMark> MarkBatches(const std::vector<relborg::UpdateBatch>& s,
                                   int num_nodes) {
  std::vector<size_t> cum(num_nodes, 0);
  std::vector<BatchMark> marks(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    const int v = s[i].node;
    cum[v] += s[i].rows.size();
    marks[i] = BatchMark{v, cum[v], s[i].rows.empty()};
  }
  return marks;
}

std::vector<double> FirstCoverTimes(const std::vector<BatchMark>& marks,
                                    std::vector<Observation> observations) {
  std::vector<double> times(marks.size(), kNaN);
  int num_nodes = 0;
  for (const BatchMark& m : marks) num_nodes = std::max(num_nodes, m.node + 1);
  // Per node, its non-empty batches in stream order: their rows_through
  // rise, so one cursor per node walks them as watermarks rise.
  std::vector<std::vector<size_t>> by_node(num_nodes);
  for (size_t i = 0; i < marks.size(); ++i) {
    if (!marks[i].empty) by_node[marks[i].node].push_back(i);
  }
  std::stable_sort(observations.begin(), observations.end(),
                   [](const Observation& a, const Observation& b) {
                     return a.time < b.time;
                   });
  std::vector<size_t> cursor(num_nodes, 0);
  for (const Observation& obs : observations) {
    for (int v = 0; v < num_nodes; ++v) {
      if (static_cast<size_t>(v) >= obs.watermark.size()) break;
      const std::vector<size_t>& batches = by_node[v];
      size_t& c = cursor[v];
      while (c < batches.size() &&
             marks[batches[c]].rows_through <= obs.watermark[v]) {
        times[batches[c]] = obs.time;
        ++c;
      }
    }
  }
  return times;
}

std::string CompareCovarBitwise(const relborg::CovarMatrix& got,
                                const relborg::CovarMatrix& want) {
  if (got.num_features() != want.num_features()) return "feature counts differ";
  const relborg::CovarPayload& a = got.payload();
  const relborg::CovarPayload& b = want.payload();
  char buf[160];
  if (Bits(a.count) != Bits(b.count)) {
    std::snprintf(buf, sizeof(buf), "count %.17g != %.17g", a.count, b.count);
    return buf;
  }
  if (a.sum.size() != b.sum.size() || a.quad.size() != b.quad.size()) {
    return "payload sizes differ";
  }
  for (size_t i = 0; i < a.sum.size(); ++i) {
    if (Bits(a.sum[i]) != Bits(b.sum[i])) {
      std::snprintf(buf, sizeof(buf), "sum[%zu] %.17g != %.17g", i, a.sum[i],
                    b.sum[i]);
      return buf;
    }
  }
  for (size_t i = 0; i < a.quad.size(); ++i) {
    if (Bits(a.quad[i]) != Bits(b.quad[i])) {
      std::snprintf(buf, sizeof(buf), "quad[%zu] %.17g != %.17g", i, a.quad[i],
                    b.quad[i]);
      return buf;
    }
  }
  return "";
}

std::string CompareCovarWithin(const relborg::CovarMatrix& got,
                               const relborg::CovarMatrix& want, double rtol) {
  const int n = want.num_features();
  if (got.num_features() != n) return "feature counts differ";
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      const double g = got.Moment(i, j);
      const double w = want.Moment(i, j);
      if (!(std::abs(g - w) <= rtol * std::max(1.0, std::abs(w)))) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "moment(%d,%d) %.17g vs %.17g", i, j,
                      g, w);
        return buf;
      }
    }
  }
  return "";
}

std::string CompareVectorsWithin(const std::vector<double>& got,
                                 const std::vector<double>& want,
                                 double rtol) {
  if (got.size() != want.size()) return "lengths differ";
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <=
          rtol * std::max(1.0, std::abs(want[i])))) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "[%zu] %.17g vs %.17g", i, got[i],
                    want[i]);
      return buf;
    }
  }
  return "";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
