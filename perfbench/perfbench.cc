// The relborg benchmark program: one process runs one workload over a
// Retailer dataset generated from --seed, measures it for --seconds, checks
// its outputs against a reference, and prints every metric by name and unit.
// The last stdout line is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// Layers are measured from outside, by timing calls into the public
// functions of data/, core/, ml/, ivm/, stream/ and serve/, and by reading
// the StreamStats that StreamScheduler::Finish returns. Exit codes: 0 ok,
// 2 bad arguments or a non-Release build, 3 a correctness gate failed (no
// result is printed then).
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/materializer.h"
#include "bench_lib.h"
#include "core/covar_engine.h"
#include "core/decision_node_engine.h"
#include "core/exec_policy.h"
#include "core/feature_map.h"
#include "data/dataset.h"
#include "ivm/ivm.h"
#include "ivm/shadow_db.h"
#include "ivm/update_stream.h"
#include "ml/decision_tree.h"
#include "ml/linear_regression.h"
#include "serve/snapshot_server.h"
#include "stream/stream_scheduler.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using relborg::CovarFivm;
using relborg::CovarMatrix;
using relborg::Dataset;
using relborg::ExecPolicy;
using relborg::FeatureMap;
using relborg::HigherOrderIvm;
using relborg::ShadowDb;
using relborg::StreamScheduler;
using relborg::StreamStats;
using relborg::UpdateBatch;
using relborg::WallTimer;

// Fixed engine parallelism for every workload (the host has 4 CPUs); the
// load generator adds at most 3 threads (one producer, two readers).
constexpr int kEngineThreads = 4;
// Set-up sampling (see SetupSampler): before the warm-up at least
// kSetupFirstRepeats set-ups and kSetupFirstSeconds, after every repetition
// at least one set-up and kSetupSliceSeconds.
constexpr int kSetupFirstRepeats = 3;
constexpr double kSetupFirstSeconds = 0.5;
constexpr double kSetupSliceSeconds = 0.25;

// --- Metric sets -----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// A fixed, ordered set of metrics: every workload prints the same names, and
// Set() aborts on a name outside the set so the set and BENCHMARK.json stay
// in step.
class MetricSet {
 public:
  explicit MetricSet(std::vector<Metric> metrics) : m_(std::move(metrics)) {}
  void Set(const std::string& name, double value) {
    for (Metric& m : m_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  const std::vector<Metric>& metrics() const { return m_; }

 private:
  std::vector<Metric> m_;
};

// Every workload reports these with tracing off. What each one means per
// workload is in README.md ("End-to-end metrics").
MetricSet EndToEndMetrics() {
  return MetricSet({{"setup_s", "s"},
                    {"time_to_result_s", "s"},
                    {"latency_p50_ms", "ms"},
                    {"latency_tail_ms", "ms"},
                    {"peak_rss_mb", "MiB"}});
}

// Every workload reports these with tracing on; a layer the workload does
// not call reads 0.
MetricSet PerLayerMetrics() {
  return MetricSet({{"core.covar_batch_s", "s"},
                    {"core.covar_batch_1t_s", "s"},
                    {"ml.ridge_solve_s", "s"},
                    {"ml.gd_iterations", "count"},
                    {"core.split_stats_s", "s"},
                    {"core.split_stats_1t_s", "s"},
                    {"ml.tree_aggregates", "count"},
                    {"ml.tree_nodes", "count"},
                    {"stream.push_s", "s"},
                    {"stream.finish_s", "s"},
                    {"ivm.stage_rows_s", "s"},
                    {"ivm.commit_chunk_s", "s"},
                    {"ivm.replay_s", "s"},
                    {"ivm.classic_s", "s"},
                    {"stream.apply_s", "s"},
                    {"stream.commit_s", "s"},
                    {"stream.compute_s", "s"},
                    {"stream.commit_gate_wait_s", "s"},
                    {"stream.maintain_gate_wait_s", "s"},
                    {"stream.compute_gate_wait_s", "s"},
                    {"stream.epochs", "count"},
                    {"stream.ranges", "count"},
                    {"stream.ingress_high_water_rows", "rows"},
                    {"stream.speculation_hit_ratio", "ratio"},
                    {"serve.begin_snapshot_p50_us", "us"},
                    {"serve.covar_p50_us", "us"},
                    {"serve.covar_p99_us", "us"},
                    {"serve.groupby_p50_us", "us"},
                    {"serve.staleness_rows_p50", "rows"},
                    {"gen.lateness_p99_ms", "ms"},
                    {"trace.overhead_s", "s"}});
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

// Everything one run produces. `named` holds the workload's own metrics
// (ridge_train_s, ingest_tuples_per_s, freshness_p99_ms, ...), printed by
// name and unit above the JSON line.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  MetricSet end_to_end = EndToEndMetrics();
  MetricSet per_layer = PerLayerMetrics();
  std::vector<std::pair<Metric, std::string>> named;  // metric, note
  std::string gate_error;  // first failed correctness check, if any
  int reps = 0;

  void Named(const std::string& name, double value, const std::string& unit,
             const std::string& note = "") {
    named.push_back({Metric{name, unit, value}, note});
  }
  void Fail(const std::string& what) {
    if (gate_error.empty()) gate_error = what;
  }
};

// --- Spans and repetitions -------------------------------------------------

// Owns every SpanRecorder of the run (one per thread per repetition) so
// spans stay in memory until the run writes them out.
class SpanStore {
 public:
  SpanStore() : origin_(Clock::now()) {}
  SpanRecorder* New(const std::string& thread, bool enabled) {
    std::lock_guard<std::mutex> lock(mu_);
    recorders_.push_back(
        std::make_unique<SpanRecorder>(thread, origin_, enabled));
    return recorders_.back().get();
  }
  std::vector<const SpanRecorder*> All() const {
    std::vector<const SpanRecorder*> out;
    for (const auto& r : recorders_) {
      if (!r->spans().empty()) out.push_back(r.get());
    }
    return out;
  }
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  // The clock time `t` seconds after the origin.
  Clock::time_point At(double t) const {
    return origin_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(t));
  }

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::deque<std::unique_ptr<SpanRecorder>> recorders_;
};

enum class RepKind { kWarmup, kUntraced, kTraced };

// The input seed of repetition `index`: the run's seed for the warm-up
// (index 0), a fixed function of (seed, index) after it.
uint64_t RepSeed(uint64_t seed, int index) {
  if (index == 0) return seed;
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(index);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Samples a workload's set-up time across the whole run. Each sample builds
// the workload's inputs and engine objects and discards them; the workload
// builds its own once, untimed. The host's speed moves in phases of a few
// seconds, so set-ups spread over the run give a steadier median than a
// burst at its start. Slices follow each repetition (see RepeatFor), when
// the repetition's memory is free again.
class SetupSampler {
 public:
  explicit SetupSampler(std::function<void()> fn) : fn_(std::move(fn)) {
    Slice(kSetupFirstSeconds, kSetupFirstRepeats);
  }
  // Sets up at least `min_repeats` times and for at least `seconds`.
  void Slice(double seconds = kSetupSliceSeconds, int min_repeats = 1) {
    WallTimer slice;
    for (int i = 0; i < min_repeats || slice.Seconds() < seconds; ++i) {
      WallTimer timer;
      fn_();
      t_.push_back(timer.Seconds());
    }
  }
  double Median() const { return MedianOf(t_); }
  size_t samples() const { return t_.size(); }

 private:
  std::function<void()> fn_;
  std::vector<double> t_;
};

// Runs one warm-up repetition (its timings are dropped: it pays for thread
// pools and first-touch page faults), then repetitions 1, 2, ... until
// `seconds` were measured and at least three repetitions. `rep` gets the
// repetition's index; the stream workloads draw each repetition's stream
// from RepSeed(seed, index): a stream's cost depends on its order (a late
// delete of a dimension row costs far more than an early one), so a run's
// median covers several streams instead of hinging on one. With tracing
// on, measured repetitions alternate untraced / traced, so the tracing
// overhead is measured within one process. A set-up slice follows every
// repetition; `seconds` counts repetitions only. Returns the measured
// repetitions.
int RepeatFor(double seconds, bool trace_mode, SetupSampler* setup,
              const std::function<void(RepKind, int)>& rep) {
  rep(RepKind::kWarmup, 0);
  setup->Slice();
  const int min_reps = trace_mode ? 4 : 3;
  double measured = 0;
  int reps = 0;
  while (reps < min_reps || measured < seconds) {
    ++reps;
    WallTimer timer;
    rep(trace_mode && reps % 2 == 0 ? RepKind::kTraced : RepKind::kUntraced,
        reps);
    measured += timer.Seconds();
    setup->Slice();
  }
  return reps;
}

// Reports the set-up median once the run's samples are in.
void SetSetup(Outcome* out, const SetupSampler& setup) {
  out->end_to_end.Set("setup_s", setup.Median());
  out->Named("setup_s", setup.Median(), "s",
             "median of " + std::to_string(setup.samples()) + " set-ups");
}

// "median of 5 reps, 1.02 .. 1.31" — the spread printed next to a median.
std::string RepsNote(const std::vector<double>& reps) {
  if (reps.empty()) return "no reps";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "median of %zu reps, %.4g .. %.4g",
                reps.size(), *std::min_element(reps.begin(), reps.end()),
                *std::max_element(reps.begin(), reps.end()));
  return buf;
}

double Ms(double s) { return s * 1e3; }
double Us(double s) { return s * 1e6; }

// Sets latency_p50_ms / latency_tail_ms from per-repetition samples.
void SetLatency(Outcome* out, const std::vector<std::vector<double>>& ms,
                const std::string& what) {
  const Quantile p50 = MedianOverReps(ms, false);
  const Quantile tail = MedianOverReps(ms, true);
  out->end_to_end.Set("latency_p50_ms", p50.value);
  out->end_to_end.Set("latency_tail_ms", tail.value);
  out->Named("latency_p50_ms", p50.value, "ms",
             what + ", " + QuantileLabel(p50));
  out->Named("latency_tail_ms", tail.value, "ms",
             what + ", " + QuantileLabel(tail));
}

// Trace overhead: traced minus untraced median of the workload's
// time-to-result, from the alternating repetitions of one run.
void SetTraceOverhead(Outcome* out, const std::vector<double>& untraced,
                      const std::vector<double>& traced) {
  const double u = MedianOf(untraced);
  const double t = MedianOf(traced);
  out->per_layer.Set("trace.overhead_s", t - u);
  out->Named("time_to_result_untraced_s", u, "s",
             std::to_string(untraced.size()) + " reps");
  out->Named("time_to_result_traced_s", t, "s",
             std::to_string(traced.size()) + " reps");
}

// --- batch-train -----------------------------------------------------------

// Time to model (Fig. 3): the covariance batch over the join plus ridge by
// gradient descent, then a depth-4 regression tree over the 11 continuous
// features and Items.category. Only core, ring and ml do work here. Every
// repetition runs on the seed's dataset: its row counts are fixed by the
// scale, so repetitions on other seeds would add work, not information.
constexpr double kBatchScale = 0.2;
// Ridge requests per repetition: the three measured repetitions of a run
// pool at least 100 samples, enough for a p90 with ten samples beyond it.
constexpr int kRidgePerRep = 34;

std::vector<relborg::TreeFeature> TreeFeatures(const Dataset& ds) {
  std::vector<relborg::TreeFeature> feats;
  for (size_t f = 0; f + 1 < ds.features.size(); ++f) {
    feats.push_back({ds.features[f].relation, ds.features[f].attr, false});
  }
  feats.push_back({"Items", "category", true});
  return feats;
}

Outcome RunBatchTrain(const Args& args, SpanStore* store) {
  Outcome out;
  relborg::GenOptions gen;
  gen.scale = kBatchScale;
  gen.seed = args.seed;
  const auto ds = std::make_unique<Dataset>(relborg::MakeRetailer(gen));
  SetupSampler setup([&] {
    const Dataset d = relborg::MakeRetailer(gen);
    FeatureMap fm(d.query, d.features);
    (void)TreeFeatures(d);
  });

  const FeatureMap fm(ds->query, ds->features);
  const relborg::RootedTree tree = ds->RootAtFact();
  const std::vector<relborg::TreeFeature> feats = TreeFeatures(*ds);
  const int response = fm.num_features() - 1;
  relborg::CovarEngineOptions par;
  par.mode = relborg::ExecMode::kSharedParallel;
  par.policy = ExecPolicy{kEngineThreads};
  relborg::CovarEngineOptions one = par;
  one.policy = ExecPolicy{1};
  const relborg::DecisionTreeOptions tree_opts;

  // Correctness references, outside the timed region: the covariance batch
  // at 1 thread, which every 4-thread batch must equal bit for bit and
  // which must match moments of the materialized join; and the closed-form
  // ridge model every GD model must match.
  const CovarMatrix reference = relborg::ComputeCovarMatrix(tree, fm, {}, one);
  {
    const relborg::DataMatrix dm = relborg::MaterializeJoin(tree, fm);
    const int n = fm.num_features();
    relborg::CovarPayload p = relborg::CovarPayload::Zero(n);
    p.count = static_cast<double>(dm.num_rows());
    for (size_t r = 0; r < dm.num_rows(); ++r) {
      const double* row = dm.Row(r);
      for (int i = 0; i < n; ++i) {
        p.sum[i] += row[i];
        for (int j = i; j < n; ++j) {
          p.quad[relborg::UpperTriIndex(n, i, j)] += row[i] * row[j];
        }
      }
    }
    const std::string diff =
        CompareCovarWithin(reference, CovarMatrix(n, std::move(p)), 1e-9);
    if (!diff.empty()) out.Fail("covariance vs materialized join: " + diff);
  }
  const relborg::LinearModel closed_form =
      relborg::SolveRidgeClosedForm(reference, response);
  std::vector<double> closed_form_params = closed_form.weights;
  closed_form_params.push_back(closed_form.bias);

  // Per repetition: kRidgePerRep ridge requests, then one tree.
  struct BatchRep {
    std::vector<double> ridge_s, covar_s, gd_s;
    double tree_s = 0;
    int gd_iterations = 0;
    size_t tree_aggregates = 0;
    int tree_nodes = 0;
    double ttr() const { return ridge_s.front() + tree_s; }
  };
  std::vector<BatchRep> warmup, untraced, traced;

  out.reps = RepeatFor(args.seconds, args.trace, &setup,
                       [&](RepKind kind, int) {
    SpanRecorder* rec = store->New("main", kind == RepKind::kTraced);
    ScopedSpan rep_span(rec, "batch-train.rep");
    BatchRep rep;
    for (int r = 0; r < kRidgePerRep; ++r) {
      WallTimer ridge_timer;
      std::unique_ptr<CovarMatrix> m;
      {
        ScopedSpan s(rec, "core.ComputeCovarMatrix");
        WallTimer t;
        m = std::make_unique<CovarMatrix>(
            relborg::ComputeCovarMatrix(tree, fm, {}, par));
        rep.covar_s.push_back(t.Seconds());
      }
      relborg::TrainInfo info;
      relborg::LinearModel model;
      {
        ScopedSpan s(rec, "ml.TrainRidgeGd");
        WallTimer t;
        model = relborg::TrainRidgeGd(*m, response, {}, {}, &info);
        rep.gd_s.push_back(t.Seconds());
      }
      rep.ridge_s.push_back(ridge_timer.Seconds());
      ++out.attempted;
      rep.gd_iterations = info.iterations;
      // Outside the timed region: the batch against the 1-thread one, the
      // model against the closed form.
      const std::string diff = CompareCovarBitwise(*m, reference);
      if (!diff.empty()) out.Fail("covariance 4 threads vs 1 thread: " + diff);
      std::vector<double> params = model.weights;
      params.push_back(model.bias);
      const std::string mdiff =
          CompareVectorsWithin(params, closed_form_params, 1e-5);
      if (!mdiff.empty()) out.Fail("ridge GD vs closed form: " + mdiff);
    }
    WallTimer tree_timer;
    relborg::DecisionTree dt;
    {
      ScopedSpan s(rec, "ml.DecisionTree::TrainRegression");
      dt = relborg::DecisionTree::TrainRegression(ds->query, ds->response,
                                                  feats, tree_opts);
    }
    rep.tree_s = tree_timer.Seconds();
    ++out.attempted;
    rep.tree_aggregates = dt.aggregates_evaluated();
    rep.tree_nodes = dt.num_nodes();
    // Every tree over the same dataset evaluates the same aggregates.
    if (!warmup.empty() &&
        (rep.tree_aggregates != warmup.front().tree_aggregates ||
         rep.tree_nodes != warmup.front().tree_nodes)) {
      out.Fail("tree aggregate count not repeatable");
    }
    (kind == RepKind::kWarmup     ? warmup
     : kind == RepKind::kTraced ? traced
                                : untraced)
        .push_back(std::move(rep));
  });
  out.end_to_end.Set("peak_rss_mb", PeakRssMb());
  SetSetup(&out, setup);

  auto per_rep = [](const std::vector<BatchRep>& reps, auto field) {
    std::vector<double> v;
    for (const BatchRep& r : reps) v.push_back(field(r));
    return v;
  };
  auto pooled = [](const std::vector<BatchRep>& reps,
                   std::vector<double> BatchRep::*member) {
    std::vector<double> v;
    for (const BatchRep& r : reps) {
      v.insert(v.end(), (r.*member).begin(), (r.*member).end());
    }
    return v;
  };
  const std::vector<double> ttr =
      per_rep(untraced, [](const BatchRep& r) { return r.ttr(); });
  out.end_to_end.Set("time_to_result_s", MedianOf(ttr));
  // The ridge latencies of all measured repetitions form one sample set:
  // one repetition alone holds too few for a tail.
  std::vector<double> ridge_ms;
  for (double s : pooled(untraced, &BatchRep::ridge_s)) {
    ridge_ms.push_back(Ms(s));
  }
  SetLatency(&out, {ridge_ms}, "ComputeCovarMatrix + TrainRidgeGd");
  out.Named("time_to_result_s", MedianOf(ttr), "s", RepsNote(ttr));
  const std::vector<double> ridge_first =
      per_rep(untraced, [](const BatchRep& r) { return r.ridge_s.front(); });
  out.Named("ridge_train_s", MedianOf(ridge_first), "s",
            RepsNote(ridge_first));
  const std::vector<double> tree_s =
      per_rep(untraced, [](const BatchRep& r) { return r.tree_s; });
  out.Named("tree_train_s", MedianOf(tree_s), "s", RepsNote(tree_s));

  if (args.trace) {
    SetTraceOverhead(
        &out, ttr,
        per_rep(traced, [](const BatchRep& r) { return r.ttr(); }));
    out.per_layer.Set("core.covar_batch_s",
                      MedianOf(pooled(traced, &BatchRep::covar_s)));
    out.per_layer.Set("ml.ridge_solve_s",
                      MedianOf(pooled(traced, &BatchRep::gd_s)));
    out.per_layer.Set("ml.gd_iterations",
                      MedianOf(per_rep(traced, [](const BatchRep& r) {
                        return r.gd_iterations;
                      })));
    out.per_layer.Set("ml.tree_aggregates",
                      MedianOf(per_rep(traced, [](const BatchRep& r) {
                        return static_cast<double>(r.tree_aggregates);
                      })));
    out.per_layer.Set("ml.tree_nodes",
                      MedianOf(per_rep(traced, [](const BatchRep& r) {
                        return r.tree_nodes;
                      })));
    // Probes on the seed's dataset: the covariance batch at 1 thread, and
    // the root node's split-statistics batch at 4 and 1 threads.
    SpanRecorder* probe = store->New("probe", true);
    std::vector<double> c1;
    for (int i = 0; i < 3; ++i) {
      ScopedSpan s(probe, "core.ComputeCovarMatrix(1t)");
      WallTimer t;
      (void)relborg::ComputeCovarMatrix(tree, fm, {}, one);
      c1.push_back(t.Seconds());
    }
    out.per_layer.Set("core.covar_batch_1t_s", MedianOf(c1));
    std::vector<int> cand_feature;
    std::vector<relborg::SplitCandidate> batch = relborg::BuildSplitCandidates(
        ds->query, feats, tree_opts, &cand_feature);
    const int rnode = ds->query.IndexOf(ds->response.relation);
    const int rattr =
        ds->query.relation(rnode)->schema().MustIndexOf(ds->response.attr);
    // The tree appends a trivially true candidate for the node's own stats.
    relborg::SplitCandidate base;
    base.node = rnode;
    base.pred = relborg::Predicate::Ge(
        rattr, -std::numeric_limits<double>::infinity());
    batch.push_back(base);
    const relborg::FilterSet none(ds->query.num_relations());
    for (int threads : {kEngineThreads, 1}) {
      std::vector<double> t;
      for (int i = 0; i < 3; ++i) {
        ScopedSpan s(probe, threads == 1 ? "core.ComputeSplitStats(1t)"
                                         : "core.ComputeSplitStats");
        WallTimer timer;
        (void)relborg::ComputeSplitStats(ds->query, rnode, rattr, none, batch,
                                         ExecPolicy{threads});
        t.push_back(timer.Seconds());
      }
      out.per_layer.Set(threads == 1 ? "core.split_stats_1t_s"
                                     : "core.split_stats_s",
                        MedianOf(t));
    }
  }
  return out;
}

// --- Stream workloads ------------------------------------------------------

struct StreamConfig {
  double scale = 0.2;
  bool mixed = false;          // BuildMixedStream (inserts + deletes)
  size_t batch_size = 1000;
  double open_loop_rate = 0;   // tuples/s; 0 = closed loop
  int readers = 0;             // closed-loop snapshot reader threads
};

std::vector<UpdateBatch> BuildStream(const Dataset& ds, const StreamConfig& c,
                                     uint64_t seed) {
  relborg::UpdateStreamOptions ins;
  ins.batch_size = c.batch_size;
  ins.seed = seed;
  if (!c.mixed) return relborg::BuildInsertStream(ds.query, ins);
  relborg::MixedStreamOptions mixed;
  mixed.insert = ins;
  return relborg::BuildMixedStream(ds.query, mixed);
}

// Records (time, watermark) of every maintained epoch: the closed-loop
// workloads' freshness source. Runs on the applier thread, so it only
// appends.
class EpochLog : public relborg::StreamEpochObserver {
 public:
  explicit EpochLog(const SpanStore* store) : store_(store) {}
  void OnEpochMaintained(uint64_t, const std::vector<size_t>& wm) override {
    obs_.push_back(Observation{store_->Now(), wm});
  }
  std::vector<Observation> Take() { return std::move(obs_); }

 private:
  const SpanStore* store_;
  std::vector<Observation> obs_;
};

constexpr size_t kReaderSamples = 1 << 14;
// A traced repetition records spans for one reader transaction in this many
// (the one that also runs GroupBy and TrainModel); tracing every read would
// keep tens of millions of spans.
constexpr size_t kReaderTraceEvery = 64;

// One serve-fresh reader's samples for one repetition.
struct ReaderLog {
  // Reads run back to back, millions per repetition: keep bounded,
  // evenly spaced subsamples of them.
  SampleBuffer read_us{kReaderSamples}, begin_us{kReaderSamples},
      covar_us{kReaderSamples}, groupby_us{kReaderSamples},
      model_ms{kReaderSamples}, staleness_rows{kReaderSamples};
  std::vector<Observation> horizons;  // first open of each new horizon
  size_t reads_during_ingest = 0;
  size_t attempted = 0;
  size_t failed = 0;
  bool horizon_went_back = false;
};

// Per-repetition stream results.
struct StreamRep {
  uint64_t stream_seed = 0;
  size_t rows = 0;
  double ttr = 0;       // first Push -> Finish returned
  double push_s = 0;    // summed time inside Push
  double finish_s = 0;  // Finish (drain) time
  StreamStats stats;
  std::vector<double> freshness_ms;
  std::vector<double> lateness_ms;
  std::vector<ReaderLog> readers;
  std::unique_ptr<CovarMatrix> result;
};

template <typename Strategy>
Outcome RunStream(const Args& args, const StreamConfig& cfg,
                  SpanStore* store) {
  constexpr bool kServe = relborg::serve_internal::HasServePin<Strategy>::value;
  Outcome out;
  relborg::GenOptions gen;
  gen.scale = cfg.scale;
  gen.seed = args.seed;
  const auto ds = std::make_unique<Dataset>(relborg::MakeRetailer(gen));
  SetupSampler setup([&] {
    const Dataset d = relborg::MakeRetailer(gen);
    const std::vector<UpdateBatch> stream = BuildStream(d, cfg, args.seed);
    ShadowDb shadow(d.query, d.query.IndexOf(d.fact));
    FeatureMap fm(shadow.query(), d.features);
    Strategy strategy(&shadow, &fm, ExecPolicy{kEngineThreads});
  });

  const int root_index = ds->query.IndexOf(ds->fact);
  const int num_nodes = static_cast<int>(ds->query.num_relations());

  std::vector<StreamRep> warmup, untraced, traced;
  auto one_rep = [&](RepKind kind, int index) {
    const bool is_traced = kind == RepKind::kTraced;
    StreamRep rep;
    rep.stream_seed = RepSeed(args.seed, index);
    std::vector<UpdateBatch> batches =  // consumed by Push
        BuildStream(*ds, cfg, rep.stream_seed);
    rep.rows = relborg::StreamRowCount(batches);
    const std::vector<BatchMark> marks = MarkBatches(batches, num_nodes);
    // Open-loop schedule: batch i is due once the rows before it have been
    // offered at the fixed rate.
    std::vector<double> due(batches.size(), 0);
    if (cfg.open_loop_rate > 0) {
      size_t before = 0;
      for (size_t i = 0; i < batches.size(); ++i) {
        due[i] = static_cast<double>(before) / cfg.open_loop_rate;
        before += batches[i].rows.size();
      }
    }
    auto shadow = std::make_unique<ShadowDb>(ds->query, root_index);
    FeatureMap fm(shadow->query(), ds->features);
    Strategy strategy(shadow.get(), &fm, ExecPolicy{kEngineThreads});
    const int response = fm.num_features() - 1;
    SpanRecorder* rec = store->New("producer", is_traced);
    std::vector<double> sent(batches.size(), 0);
    EpochLog epoch_log(store);
    {
      StreamScheduler<Strategy> scheduler(shadow.get(), &strategy);
      std::atomic<bool> done{false};
      std::atomic<size_t> rows_pushed{0};
      std::vector<std::thread> clients;
      std::unique_ptr<relborg::SnapshotServer<Strategy>> server;
      if constexpr (kServe) {
        if (cfg.readers > 0) {
          server = std::make_unique<relborg::SnapshotServer<Strategy>>(
              &scheduler, shadow.get(), &strategy);
        }
      }
      if (!server) scheduler.SetEpochObserver(&epoch_log);
      rep.readers.resize(server ? cfg.readers : 0);
      if constexpr (kServe) {
        const std::vector<int>& kids =
            shadow->tree().node(shadow->tree().root()).children;
        const int gb_node = kids.empty() ? shadow->tree().root() : kids[0];
        for (size_t t = 0; t < rep.readers.size(); ++t) {
          SpanRecorder* traced_rec =
              store->New("reader" + std::to_string(t), is_traced);
          clients.emplace_back([&, traced_rec, t] {
            ReaderLog& log = rep.readers[t];
            SpanRecorder untraced_rec("off", Clock::now(), false);
            uint64_t last_h = 0;
            bool seen = false;
            for (size_t iter = 1;; ++iter) {
              // A snapshot opened after Finish covers the whole stream, so
              // the reader stops after one such read.
              const bool final_read = done.load(std::memory_order_acquire);
              SpanRecorder* rrec = iter % kReaderTraceEvery == 0
                                       ? traced_rec
                                       : &untraced_rec;
              ScopedSpan txn_span(rrec, "serve.ReadTxn");
              const double t0 = store->Now();
              typename relborg::SnapshotServer<Strategy>::ReadTxn txn;
              {
                ScopedSpan s(rrec, "serve.BeginSnapshot");
                txn = server->BeginSnapshot();
              }
              const double t1 = store->Now();
              const uint64_t h = txn.horizon_epochs();
              if (seen && h < last_h) log.horizon_went_back = true;
              if (!seen || h != last_h) {
                log.horizons.push_back(Observation{t1, txn.watermark()});
              }
              seen = true;
              last_h = h;
              size_t visible = 0;
              for (size_t w : txn.watermark()) visible += w;
              const size_t pushed = rows_pushed.load(std::memory_order_acquire);
              log.staleness_rows.Add(
                  pushed > visible ? static_cast<double>(pushed - visible) : 0);
              double covar_end = 0;
              double count = 0;
              {
                ScopedSpan s(rrec, "serve.Covar");
                count = server->Covar(txn).count();
                covar_end = store->Now();
              }
              ++log.attempted;
              if (!std::isfinite(count) || count < 0) ++log.failed;
              if (iter % 8 == 0) {
                ScopedSpan g(rrec, "serve.GroupBy");
                const double g0 = store->Now();
                (void)server->GroupBy(txn, gb_node);
                log.groupby_us.Add(Us(store->Now() - g0));
                ++log.attempted;
              }
              if (iter % 64 == 0 && count > 100) {
                ScopedSpan tm(rrec, "serve.TrainModel");
                const double m0 = store->Now();
                const relborg::LinearModel model =
                    server->TrainModel(txn, response);
                log.model_ms.Add(Ms(store->Now() - m0));
                ++log.attempted;
                if (!std::isfinite(model.bias)) ++log.failed;
              }
              const double e0 = store->Now();
              {
                ScopedSpan s(rrec, "serve.EndSnapshot");
                server->EndSnapshot(&txn);
              }
              const double e1 = store->Now();
              log.begin_us.Add(Us(t1 - t0));
              log.covar_us.Add(Us(covar_end - t1));
              // The transaction is Begin + Covar + End; a GroupBy or
              // TrainModel in between is timed on its own.
              log.read_us.Add(Us((covar_end - t0) + (e1 - e0)));
              if (!final_read) ++log.reads_during_ingest;
              if (final_read) break;
            }
          });
        }
      }

      const double t_start = store->Now();
      size_t failed_pushes = 0;
      {
        ScopedSpan ingest_span(rec, "stream.ingest");
        for (size_t i = 0; i < batches.size(); ++i) {
          if (cfg.open_loop_rate > 0) {
            std::this_thread::sleep_until(store->At(t_start + due[i]));
            const double now = store->Now();
            rep.lateness_ms.push_back(
                Ms(std::max(0.0, now - t_start - due[i])));
            sent[i] = t_start + due[i];
          } else {
            sent[i] = store->Now();
          }
          const size_t n = batches[i].rows.size();
          ScopedSpan s(rec, "stream.Push");
          const double p0 = store->Now();
          const relborg::Status st = scheduler.Push(std::move(batches[i]));
          rep.push_s += store->Now() - p0;
          if (!st.ok()) ++failed_pushes;
          rows_pushed.fetch_add(n, std::memory_order_release);
        }
        ScopedSpan s(rec, "stream.Finish");
        const double f0 = store->Now();
        const relborg::Status st = scheduler.Finish(&rep.stats);
        const double f1 = store->Now();
        rep.finish_s = f1 - f0;
        rep.ttr = f1 - t_start;
        if (!st.ok()) ++failed_pushes;
      }
      done.store(true, std::memory_order_release);
      for (std::thread& c : clients) c.join();
      out.attempted += batches.size();
      out.failed += failed_pushes + rep.stats.rejected_batches +
                    rep.stats.dropped_batches;

      std::vector<Observation> obs;
      if constexpr (kServe) {
        if (server) {
          for (ReaderLog& log : rep.readers) {
            out.attempted += log.attempted;
            out.failed += log.failed;
            if (log.horizon_went_back) out.Fail("a reader's horizon went back");
            obs.insert(obs.end(), log.horizons.begin(), log.horizons.end());
          }
          // A snapshot opened after Finish must equal the final state.
          auto txn = server->BeginSnapshot();
          const std::string diff =
              CompareCovarBitwise(server->Covar(txn), strategy.Current());
          server->EndSnapshot(&txn);
          if (!diff.empty()) out.Fail("final snapshot vs Current(): " + diff);
        }
      }
      if (!server) obs = epoch_log.Take();
      const std::vector<double> cover = FirstCoverTimes(marks, std::move(obs));
      for (size_t i = 0; i < cover.size(); ++i) {
        if (marks[i].empty) continue;
        if (std::isnan(cover[i])) {
          out.Fail("batch " + std::to_string(i) + " never became visible");
          break;
        }
        rep.freshness_ms.push_back(Ms(cover[i] - sent[i]));
      }
    }
    rep.result = std::make_unique<CovarMatrix>(strategy.Current());
    (kind == RepKind::kWarmup ? warmup : is_traced ? traced : untraced)
        .push_back(std::move(rep));
  };
  out.reps = RepeatFor(args.seconds, args.trace, &setup, one_rep);
  out.end_to_end.Set("peak_rss_mb", PeakRssMb());
  SetSetup(&out, setup);

  // Correctness gate: the final state is bit-identical to ReplayStream over
  // the same stream, for the warm-up and the last measured repetitions (a
  // replay costs about as much as a repetition).
  {
    std::vector<const StreamRep*> check = {&warmup.back(), &untraced.back()};
    if (!traced.empty()) check.push_back(&traced.back());
    for (const StreamRep* rep : check) {
      ShadowDb shadow(ds->query, root_index);
      FeatureMap fm(shadow.query(), ds->features);
      Strategy strategy(&shadow, &fm, ExecPolicy{kEngineThreads});
      relborg::ReplayStream(&shadow, &strategy,
                            BuildStream(*ds, cfg, rep->stream_seed));
      const std::string diff =
          CompareCovarBitwise(*rep->result, strategy.Current());
      if (!diff.empty()) out.Fail("scheduler vs ReplayStream: " + diff);
    }
  }

  // End-to-end and named metrics from the untraced repetitions.
  auto per_rep = [](const std::vector<StreamRep>& reps, auto field) {
    std::vector<double> v;
    for (const StreamRep& r : reps) v.push_back(field(r));
    return v;
  };
  // Per repetition, one reader sample buffer of all readers together.
  auto reader_samples = [](const std::vector<StreamRep>& reps,
                           SampleBuffer ReaderLog::*member) {
    std::vector<std::vector<double>> out;
    for (const StreamRep& r : reps) {
      out.emplace_back();
      for (const ReaderLog& log : r.readers) {
        const std::vector<double>& kept = (log.*member).samples();
        out.back().insert(out.back().end(), kept.begin(), kept.end());
      }
    }
    return out;
  };
  auto lateness = [](const std::vector<StreamRep>& reps) {
    std::vector<std::vector<double>> out;
    for (const StreamRep& r : reps) out.push_back(r.lateness_ms);
    return out;
  };
  const std::vector<double> ttr =
      per_rep(untraced, [](const StreamRep& r) { return r.ttr; });
  out.end_to_end.Set("time_to_result_s", MedianOf(ttr));
  std::vector<std::vector<double>> fresh;
  for (const StreamRep& r : untraced) fresh.push_back(r.freshness_ms);
  SetLatency(&out, fresh,
             cfg.readers > 0 ? "freshness: due time -> first snapshot opened"
                             : "freshness: Push -> epoch maintained");
  out.Named("time_to_result_s", MedianOf(ttr), "s", RepsNote(ttr));
  out.Named("ingest_tuples_per_s",
            MedianOf(per_rep(
                untraced, [](const StreamRep& r) { return r.rows / r.ttr; })),
            "1/s", std::to_string(untraced.front().rows) + " rows in rep 1");
  const Quantile f50 = MedianOverReps(fresh, false);
  const Quantile f99 = MedianOverReps(fresh, true);
  out.Named("freshness_p50_ms", f50.value, "ms", QuantileLabel(f50));
  out.Named("freshness_p99_ms", f99.value, "ms", QuantileLabel(f99));
  if (cfg.readers > 0) {
    const std::vector<std::vector<double>> reads =
        reader_samples(untraced, &ReaderLog::read_us);
    const Quantile r50 = MedianOverReps(reads, false);
    const Quantile r99 = MedianOverReps(reads, true);
    out.Named("read_p50_us", r50.value, "us", QuantileLabel(r50));
    out.Named("read_p99_us", r99.value, "us", QuantileLabel(r99));
    const Quantile m50 =
        MedianOverReps(reader_samples(untraced, &ReaderLog::model_ms), false);
    out.Named("model_p50_ms", m50.value, "ms", QuantileLabel(m50));
    out.Named("reads_per_s",
              MedianOf(per_rep(untraced,
                               [](const StreamRep& r) {
                                 size_t n = 0;
                                 for (const ReaderLog& l : r.readers) {
                                   n += l.reads_during_ingest;
                                 }
                                 return n / r.ttr;
                               })),
              "1/s", "during ingest");
  }
  if (cfg.open_loop_rate > 0) {
    const Quantile late = MedianOverReps(lateness(untraced), true);
    out.Named("gen.lateness_ms", late.value, "ms", QuantileLabel(late));
  }

  if (args.trace) {
    SetTraceOverhead(&out, ttr, per_rep(traced, [](const StreamRep& r) {
                       return r.ttr;
                     }));
    auto stat = [&](auto field) {
      return MedianOf(per_rep(traced, [&](const StreamRep& r) {
        return static_cast<double>(field(r.stats));
      }));
    };
    out.per_layer.Set("stream.push_s",
                      MedianOf(per_rep(traced, [](const StreamRep& r) {
                        return r.push_s;
                      })));
    out.per_layer.Set("stream.finish_s",
                      MedianOf(per_rep(traced, [](const StreamRep& r) {
                        return r.finish_s;
                      })));
    out.per_layer.Set("stream.apply_s",
                      stat([](const StreamStats& s) {
                        return s.apply_seconds;
                      }));
    out.per_layer.Set("stream.commit_s", stat([](const StreamStats& s) {
                        return s.commit_seconds;
                      }));
    out.per_layer.Set("stream.compute_s", stat([](const StreamStats& s) {
                        return s.compute_seconds;
                      }));
    out.per_layer.Set("stream.commit_gate_wait_s",
                      stat([](const StreamStats& s) {
                        return s.commit_gate_wait_seconds;
                      }));
    out.per_layer.Set("stream.maintain_gate_wait_s",
                      stat([](const StreamStats& s) {
                        return s.maintain_gate_wait_seconds;
                      }));
    out.per_layer.Set("stream.compute_gate_wait_s",
                      stat([](const StreamStats& s) {
                        return s.compute_gate_wait_seconds;
                      }));
    out.per_layer.Set("stream.epochs",
                      stat([](const StreamStats& s) { return s.epochs; }));
    out.per_layer.Set("stream.ranges",
                      stat([](const StreamStats& s) { return s.ranges; }));
    out.per_layer.Set("stream.ingress_high_water_rows",
                      stat([](const StreamStats& s) {
                        return s.ingress_high_water_rows;
                      }));
    out.per_layer.Set(
        "stream.speculation_hit_ratio", stat([](const StreamStats& s) {
          return s.speculated_ranges == 0
                     ? 0.0
                     : static_cast<double>(s.speculation_hits) /
                           static_cast<double>(s.speculated_ranges);
        }));
    if (cfg.readers > 0) {
      auto p50 = [&](SampleBuffer ReaderLog::*member) {
        return MedianOverReps(reader_samples(traced, member), false).value;
      };
      out.per_layer.Set("serve.begin_snapshot_p50_us",
                        p50(&ReaderLog::begin_us));
      out.per_layer.Set("serve.covar_p50_us", p50(&ReaderLog::covar_us));
      out.per_layer.Set(
          "serve.covar_p99_us",
          MedianOverReps(reader_samples(traced, &ReaderLog::covar_us), true)
              .value);
      out.per_layer.Set("serve.groupby_p50_us", p50(&ReaderLog::groupby_us));
      out.per_layer.Set("serve.staleness_rows_p50",
                        p50(&ReaderLog::staleness_rows));
    }
    if (cfg.open_loop_rate > 0) {
      out.per_layer.Set("gen.lateness_p99_ms",
                        MedianOverReps(lateness(traced), true).value);
    }

    // Probes of the ivm layer over the same stream, one thread each:
    // two-phase ingest, the serial ReplayStream, and the classic per-batch
    // AppendRows + ApplyBatch loop.
    SpanRecorder* probe = store->New("probe", true);
    const std::vector<UpdateBatch> stream =
        BuildStream(*ds, cfg, RepSeed(args.seed, 0));
    {
      std::vector<UpdateBatch> batches = stream;
      ShadowDb shadow(ds->query, root_index);
      double stage = 0;
      double commit = 0;
      for (UpdateBatch& b : batches) {
        if (b.rows.empty()) continue;
        std::vector<double> signs(b.rows.size(), b.sign);
        const size_t first = shadow.committed_rows(b.node);
        WallTimer t;
        relborg::IngestChunk chunk;
        {
          ScopedSpan s(probe, "ivm.ShadowDb::StageRows");
          chunk = shadow.StageRows(b.node, std::move(b.rows), std::move(signs),
                                   first);
        }
        stage += t.Seconds();
        t.Restart();
        {
          ScopedSpan s(probe, "ivm.ShadowDb::CommitChunk");
          shadow.CommitChunk(std::move(chunk));
        }
        commit += t.Seconds();
      }
      out.per_layer.Set("ivm.stage_rows_s", stage);
      out.per_layer.Set("ivm.commit_chunk_s", commit);
    }
    {
      ShadowDb shadow(ds->query, root_index);
      FeatureMap fm(shadow.query(), ds->features);
      Strategy strategy(&shadow, &fm, ExecPolicy{kEngineThreads});
      ScopedSpan s(probe, "ivm.ReplayStream");
      WallTimer t;
      relborg::ReplayStream(&shadow, &strategy, stream);
      out.per_layer.Set("ivm.replay_s", t.Seconds());
    }
    {
      ShadowDb shadow(ds->query, root_index);
      FeatureMap fm(shadow.query(), ds->features);
      Strategy strategy(&shadow, &fm, ExecPolicy{kEngineThreads});
      ScopedSpan s(probe, "ivm.classic");
      WallTimer t;
      for (const UpdateBatch& b : stream) {
        if (b.rows.empty()) continue;
        const size_t first = shadow.AppendRows(b.node, b.rows, b.sign);
        strategy.ApplyBatch(b.node, first, b.rows.size());
      }
      out.per_layer.Set("ivm.classic_s", t.Seconds());
    }
  }
  return out;
}

// --- Entry point -----------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0 && a->seconds <= 600)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

void PrintMetricsJson(const Outcome& out, const MetricSet& set) {
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              out.attempted, out.failed);
  const std::vector<Metric>& ms = set.metrics();
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <batch-train|stream-ingest|"
                 "stream-ingest-higher|serve-fresh> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>]\n");
    return 2;
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::printf("host {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"march_native\": %s, "
              "\"engine_threads\": %d}\n",
              JsonEscape(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              std::thread::hardware_concurrency(),
              JsonEscape(CpuModel()).c_str(),
              JsonEscape(PERFBENCH_COMPILER).c_str(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_MARCH_NATIVE ? "true" : "false",
              kEngineThreads);
  std::fflush(stdout);

  // Fixed allocator thresholds: glibc otherwise moves its mmap and trim
  // thresholds as large blocks are freed, so whether a repetition reuses
  // memory or page-faults it in afresh depends on the allocation history,
  // and set-up time varied by 2x between identical runs. With these, freed
  // memory stays in the heap and every measured repetition reuses it, as a
  // long-running process would.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  SpanStore store;
  Outcome out;
  if (args.workload == "batch-train") {
    out = RunBatchTrain(args, &store);
  } else if (args.workload == "stream-ingest") {
    StreamConfig c;
    c.scale = 0.5;
    c.mixed = true;
    out = RunStream<CovarFivm>(args, c, &store);
  } else if (args.workload == "stream-ingest-higher") {
    StreamConfig c;
    c.scale = 0.2;
    c.mixed = true;
    out = RunStream<HigherOrderIvm>(args, c, &store);
  } else if (args.workload == "serve-fresh") {
    StreamConfig c;
    c.scale = 0.2;
    c.batch_size = 250;
    c.open_loop_rate = 250000;
    c.readers = 2;
    out = RunStream<CovarFivm>(args, c, &store);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (!out.gate_error.empty()) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 out.gate_error.c_str());
    return 3;
  }

  std::printf("reps %d\n", out.reps);
  for (const auto& [m, note] : out.named) {
    std::printf("metric %-30s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), note.c_str());
  }
  std::printf("metric %-30s %14.6g %-6s %zu failed of %zu attempted\n",
              "failed_op_ratio",
              static_cast<double>(out.failed) /
                  static_cast<double>(std::max<size_t>(out.attempted, 1)),
              "ratio", out.failed, out.attempted);
  const MetricSet& set = args.trace ? out.per_layer : out.end_to_end;
  for (const Metric& m : set.metrics()) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   m.name.c_str());
      return 3;
    }
  }
  if (args.trace) {
    const std::vector<const SpanRecorder*> recs = store.All();
    std::printf("spans %-36s %8s %12s %12s\n", "name", "count", "total_s",
                "self_s");
    for (const SpanSummary& s : Summarize(recs)) {
      std::printf("span  %-36s %8zu %12.6f %12.6f\n", s.name.c_str(), s.count,
                  s.total_s, s.self_s);
    }
    if (!args.spans_out.empty() && !WriteSpans(args.spans_out, recs)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
      return 2;
    }
    for (const Metric& m : set.metrics()) {
      std::printf("layer  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  PrintMetricsJson(out, set);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
