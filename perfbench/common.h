// Shared pieces of the benchmark binary: command-line options, the result
// report, percentile statistics, the in-memory span tracer and snapshots of
// the counters the program already exports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nas/arch.h"
#include "nn/module.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Minimal sizes and counts: every code path and output check runs once.
  bool smoke = false;
  std::string spans_out;  // traced runs write their spans here (CSV)
  std::string git_sha = "unknown";
};

// When a timed loop stops: after `seconds` and at least `min_steps` steps,
// or at `max_steps`.
struct TimedLoop {
  double seconds = 0.0;
  // An untraced run takes at least 100 steps: ten samples beyond the p90.
  std::int64_t min_steps = 0;
  std::int64_t max_steps = INT64_MAX;

  bool done(double elapsed_s, std::int64_t steps) const {
    return steps >= max_steps || (elapsed_s >= seconds && steps >= min_steps);
  }
};

// How many times an untraced run sets its workload up; setup_s is the
// median.
inline int setup_repeats(const Options& opt) {
  return opt.smoke || opt.trace ? 1 : 5;
}

// Every workload plays Breakout; the searchable space is the bench one: 6
// cells of base width 8.
inline constexpr const char* kGame = "Breakout";
inline a3cs::nas::SearchSpaceConfig bench_space() {
  a3cs::nas::SearchSpaceConfig space;
  space.num_cells = 6;
  space.base_width = 8;
  return space;
}

// Deterministic 64-bit mix of the run seed with a per-input salt, so every
// input stream of a workload derives from --seed alone.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);

// Metrics, output checks and operation counts of one run.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  // `name` must be listed in the end-to-end (untraced run) or per-layer
  // (traced run) table; anything else is a bug here and throws.
  void metric(const std::string& name, double value);

  // Records one operation of the named check: `ok` false counts as a failed
  // operation. The detail of the first failure of each check is kept.
  void check(const std::string& name, bool ok, const std::string& detail = "");

  void meta(const std::string& key, const std::string& value);
  void meta(const std::string& key, double value);

  // Prints the meta line, the checks line and, last, the result line.
  void print() const;

 private:
  struct CheckStat {
    std::int64_t ran = 0;
    std::int64_t failed = 0;
    std::string first_failure;
  };
  bool trace_;
  std::map<std::string, double> metrics_;
  std::map<std::string, CheckStat> checks_;
  std::vector<std::pair<std::string, std::string>> meta_;  // key, JSON value
};

// --- Spans --------------------------------------------------------------

struct SpanRecord {
  const char* name;
  int parent;          // index of the enclosing span, -1 at top level
  std::int64_t step;   // step id of the workload loop
  std::int64_t start_ns;
  std::int64_t end_ns;
};

// Records spans in memory on the benchmark's thread. Disabled, open/close cost a
// branch. Spans are written out once, when the run ends.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  void set_step(std::int64_t step) { step_ = step; }
  int open(const char* name);
  void close(int id);

  // Per-call durations in milliseconds of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const;
  // For each top-level span named `step_name`: the time its direct children
  // cover, in milliseconds. Children run one after another, so their union
  // is their sum; self time is the step's duration minus this.
  std::vector<double> child_cover_ms(const std::string& step_name) const;
  void write_csv(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::int64_t step_ = -1;
  int current_ = -1;
  std::vector<SpanRecord> spans_;
};

Tracer& tracer();

class Span {
 public:
  explicit Span(const char* name) : id_(tracer().open(name)) {}
  ~Span() { tracer().close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

// Wraps a network backbone so calls into its public forward/backward are
// spans. Forwards of `large_batch` rows are named `fwd_large`, all others
// `fwd_small`.
class SpanModule : public a3cs::nn::Module {
 public:
  SpanModule(std::unique_ptr<a3cs::nn::Module> inner, const char* fwd_large,
             const char* fwd_small, int large_batch, const char* bwd)
      : inner_(std::move(inner)),
        fwd_large_(fwd_large),
        fwd_small_(fwd_small),
        large_batch_(large_batch),
        bwd_(bwd) {}

  a3cs::nn::Tensor forward(const a3cs::nn::Tensor& x) override {
    Span span(x.shape()[0] == large_batch_ ? fwd_large_ : fwd_small_);
    return inner_->forward(x);
  }
  a3cs::nn::Tensor backward(const a3cs::nn::Tensor& grad_out) override {
    Span span(bwd_);
    return inner_->backward(grad_out);
  }
  void collect_parameters(std::vector<a3cs::nn::Parameter*>& out) override {
    inner_->collect_parameters(out);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<a3cs::nn::Module> inner_;
  const char* fwd_large_;
  const char* fwd_small_;
  int large_batch_;
  const char* bwd_;
};

// --- Counters the program exports ----------------------------------------

// One reading of the exported counters: obs::MetricsRegistry counters, the
// per-kernel work totals, the global ThreadPool's region/label stats, and
// process CPU time from getrusage.
struct CounterSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> work_gflop;   // kernel -> 1e-9 flops
  std::map<std::string, double> work_gbyte;   // kernel -> 1e-9 bytes moved
  std::int64_t regions_parallel = 0;
  std::int64_t regions_inline = 0;
  std::map<std::string, std::int64_t> label_tasks;
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

CounterSnapshot take_snapshot();

// Publish the per-step deltas between two snapshots: the kernels' work
// (tensor.<k>.gflop_per_step / gbyte_per_step), and the pool's regions and
// tasks (util.pool.*) with util.cpu_per_wall.
void report_work_deltas(const CounterSnapshot& a, const CounterSnapshot& b,
                        std::int64_t steps, Report& report);
void report_pool_deltas(const CounterSnapshot& a, const CounterSnapshot& b,
                        std::int64_t steps, Report& report);

// Spans shared by every traced run: the step time with tracing on over the
// untraced step median, and the share of the untraced step that the step's
// child spans cover.
void report_trace_summary(const std::string& step_span,
                          double untraced_p50_ms, Report& report);

// Median per-call duration of a span, scaled (1 = ms, 1000 = us).
void report_span_median(const std::string& span, const std::string& metric,
                        double scale, Report& report);

double peak_rss_mb();

// Reports the end-to-end metrics shared by all workloads from the timed
// step durations (ms) and the setup durations (s) of an untraced run.
void report_end_to_end(const std::vector<double>& step_ms, double timed_wall_s,
                       const std::vector<double>& setup_s, Report& report);

// Workloads.
void run_cosearch(const Options& opt, Report& report);
void run_infer(const Options& opt, Report& report);
void run_das(const Options& opt, Report& report);

// Replays each non-skip supernet candidate alone at every cell geometry of
// the bench search space (nas.op.<op>.* metrics).
void report_op_replays(const Options& opt, Report& report);

}  // namespace perfbench
