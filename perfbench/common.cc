#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/perf/work_counters.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

const char* const kOps[] = {"conv3", "conv5", "ir3x1", "ir3x3",
                            "ir3x5", "ir5x1", "ir5x3", "ir5x5"};
const char* const kKernels[] = {"gemm", "im2col", "col2im", "conv-fwd",
                                "conv-bwd"};
const char* const kPoolLabels[] = {"gemm",     "im2col",   "col2im",
                                   "conv-fwd", "conv-bwd", "nas-topk",
                                   "env-step", "serve-eval"};

using MetricDefs = std::vector<std::pair<std::string, std::string>>;

// Name and unit of every metric, in the order of "end_to_end" (untraced run)
// and "per_layer" (traced run) in BENCHMARK.json. A step is one co-search
// iteration (cosearch), one agent action (infer) or one
// accelerator search (das). A layer a workload does not run reports 0 there.
const MetricDefs& metric_defs(bool trace) {
  static const MetricDefs end_to_end = {
      {"step_ms_p50", "ms"}, {"step_ms_p90", "ms"}, {"steps_per_s", "1/s"},
      {"setup_s", "s"},      {"peak_rss_mb", "MB"},
  };
  static const MetricDefs per_layer = [] {
    MetricDefs d = {
        {"core.span_coverage", "ratio"},
        {"obs.trace_overhead", "ratio"},
        {"rl.rollout_ms", "ms"},
        {"rl.a2c_update_ms", "ms"},
        {"nn.teacher_forward_ms", "ms"},
        {"nas.supernet_forward_ms", "ms"},
        {"nas.supernet_forward_rollout_ms", "ms"},
        {"nas.supernet_backward_ms", "ms"},
        {"nas.alpha_update_ms", "ms"},
        {"nas.sampled_macs_per_iter", "count"},
    };
    for (const char* op : kOps) {
      const std::string p = std::string("nas.op.") + op;
      d.emplace_back(p + ".fwd_ms_n80", "ms");
      d.emplace_back(p + ".bwd_ms_n80", "ms");
      d.emplace_back(p + ".fwd_us_n1", "us");
    }
    for (const char* k : kKernels) {
      d.emplace_back(std::string("tensor.") + k + ".gflop_per_step",
                     "GFLOP/step");
      d.emplace_back(std::string("tensor.") + k + ".gbyte_per_step",
                     "GB/step");
    }
    const MetricDefs rest = {
        {"nn.agent_forward_us", "us"},
        {"rl.sample_actions_us", "us"},
        {"arcade.env_step_us", "us"},
        {"arcade.vecenv_step_ms", "ms"},
        {"das.cosearch_step_us", "us"},
        {"das.step_us", "us"},
        {"accel.predictor_eval_us", "us"},
        {"das.samples_per_search", "count"},
        {"accel.predictor_evals_per_search", "count"},
        {"serve.cache.hit_rate", "ratio"},
        {"serve.cache.hits_per_search", "count"},
        {"serve.cache.misses_per_search", "count"},
        {"serve.requests_per_search", "count"},
        {"serve.batches_per_search", "count"},
        {"util.pool.regions_parallel", "count/step"},
        {"util.pool.regions_inline", "count/step"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    for (const char* label : kPoolLabels) {
      d.emplace_back(std::string("util.pool.tasks.") + label, "count/step");
    }
    d.emplace_back("util.cpu_per_wall", "ratio");
    return d;
  }();
  return trace ? per_layer : end_to_end;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the seed and salt.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Report::metric(const std::string& name, double value) {
  bool known = false;
  for (const auto& def : metric_defs(trace_)) {
    known = known || def.first == name;
  }
  if (!known) throw std::logic_error("unlisted metric: " + name);
  metrics_[name] = value;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  CheckStat& c = checks_[name];
  ++c.ran;
  if (!ok) {
    if (c.failed == 0) c.first_failure = detail.empty() ? "failed" : detail;
    ++c.failed;
  }
}

void Report::meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, json_string(value));
}

void Report::meta(const std::string& key, double value) {
  meta_.emplace_back(key, json_number(value));
}

void Report::print() const {
  std::ostringstream meta;
  meta << "{\"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    meta << (i ? ", " : "") << json_string(meta_[i].first) << ": "
         << meta_[i].second;
  }
  meta << "}}";

  std::ostringstream checks;
  checks << "{\"checks\": {";
  std::int64_t failed = 0, ran = 0;
  bool first = true;
  for (const auto& [name, c] : checks_) {
    checks << (first ? "" : ", ") << json_string(name) << ": {\"ran\": "
           << c.ran << ", \"failed\": " << c.failed;
    if (c.failed > 0) {
      checks << ", \"first_failure\": " << json_string(c.first_failure);
    }
    checks << "}";
    first = false;
    failed += c.failed;
    ran += c.ran;
  }
  checks << "}}";

  std::ostringstream result;
  // Operations: every checked step plus every end-of-run check; a failed
  // check is a failed operation.
  result << "{\"correct\": " << (failed == 0 && ran > 0 ? "true" : "false")
         << ", \"attempted\": " << std::max<std::int64_t>(1, ran)
         << ", \"failed\": " << failed << ", \"metrics\": {";
  first = true;
  for (const auto& [name, unit] : metric_defs(trace_)) {
    const auto it = metrics_.find(name);
    result << (first ? "" : ", ") << json_string(name)
           << ": {\"value\": " << json_number(it == metrics_.end() ? 0.0
                                                                 : it->second)
           << ", \"unit\": " << json_string(unit) << "}";
    first = false;
  }
  result << "}}";

  std::cout << meta.str() << "\n" << checks.str() << "\n" << result.str()
            << std::endl;
}

// --- Tracer -------------------------------------------------------------

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  spans_.push_back(SpanRecord{name, current_, step_, now_ns(), 0});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  if (id < 0) return;
  SpanRecord& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

std::vector<double> Tracer::child_cover_ms(const std::string& step_name) const {
  std::map<int, double> cover;  // step span index -> covered ms
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent < 0) {
      if (step_name == s.name) cover.emplace(static_cast<int>(i), 0.0);
      continue;
    }
    const auto it = cover.find(s.parent);
    if (it != cover.end()) {
      it->second += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  std::vector<double> out;
  out.reserve(cover.size());
  for (const auto& [idx, ms] : cover) out.push_back(ms);
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "id,name,parent,step,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << i << ',' << s.name << ',' << s.parent << ',' << s.step << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

// --- Counters -----------------------------------------------------------

CounterSnapshot take_snapshot() {
  CounterSnapshot s;
  auto& reg = a3cs::obs::MetricsRegistry::global();
  for (const char* name :
       {"das.samples", "das.steps", "predictor.evals", "serve.requests",
        "serve.batches", "serve.cache.hits", "serve.cache.misses",
        "guard.skips", "guard.a2c_skips", "guard.verdicts.error"}) {
    s.counters[name] = reg.counter(name).value();
  }
  for (const auto& [kernel, w] : a3cs::obs::perf::work_snapshot()) {
    s.work_gflop[kernel] = static_cast<double>(w.flops) * 1e-9;
    s.work_gbyte[kernel] =
        static_cast<double>(w.bytes_read + w.bytes_written) * 1e-9;
  }
  const a3cs::util::ThreadPool& pool = a3cs::util::ThreadPool::global();
  s.regions_parallel = pool.regions_parallel();
  s.regions_inline = pool.regions_inline();
  for (const auto& ls : pool.label_stats()) s.label_tasks[ls.label] = ls.tasks;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  s.wall_s = now_s();
  return s;
}

namespace {

double delta(const std::map<std::string, double>& a,
             const std::map<std::string, double>& b, const std::string& key) {
  const auto ia = a.find(key);
  const auto ib = b.find(key);
  return (ib == b.end() ? 0.0 : ib->second) -
         (ia == a.end() ? 0.0 : ia->second);
}

}  // namespace

void report_work_deltas(const CounterSnapshot& a, const CounterSnapshot& b,
                        std::int64_t steps, Report& report) {
  const double n = static_cast<double>(std::max<std::int64_t>(1, steps));
  for (const char* k : kKernels) {
    report.metric(std::string("tensor.") + k + ".gflop_per_step",
                  delta(a.work_gflop, b.work_gflop, k) / n);
    report.metric(std::string("tensor.") + k + ".gbyte_per_step",
                  delta(a.work_gbyte, b.work_gbyte, k) / n);
  }
}

void report_pool_deltas(const CounterSnapshot& a, const CounterSnapshot& b,
                        std::int64_t steps, Report& report) {
  const double n = static_cast<double>(std::max<std::int64_t>(1, steps));
  report.metric(
      "util.pool.regions_parallel",
      static_cast<double>(b.regions_parallel - a.regions_parallel) / n);
  report.metric("util.pool.regions_inline",
                static_cast<double>(b.regions_inline - a.regions_inline) / n);
  for (const char* label : kPoolLabels) {
    const auto ia = a.label_tasks.find(label);
    const auto ib = b.label_tasks.find(label);
    const std::int64_t ta = ia == a.label_tasks.end() ? 0 : ia->second;
    const std::int64_t tb = ib == b.label_tasks.end() ? 0 : ib->second;
    report.metric(std::string("util.pool.tasks.") + label,
                  static_cast<double>(tb - ta) / n);
  }
  const double wall = b.wall_s - a.wall_s;
  report.metric("util.cpu_per_wall", wall > 0 ? (b.cpu_s - a.cpu_s) / wall : 0);
}

void report_trace_summary(const std::string& step_span,
                          double untraced_p50_ms, Report& report) {
  if (untraced_p50_ms <= 0) return;
  const Tracer& t = tracer();
  report.metric("obs.trace_overhead",
                quantile(t.durations_ms(step_span), 0.5) / untraced_p50_ms);
  report.metric("core.span_coverage",
                quantile(t.child_cover_ms(step_span), 0.5) / untraced_p50_ms);
}

void report_span_median(const std::string& span, const std::string& metric,
                        double scale, Report& report) {
  const std::vector<double> d = tracer().durations_ms(span);
  if (!d.empty()) report.metric(metric, quantile(d, 0.5) * scale);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of whatever process forked this one before exec.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void report_end_to_end(const std::vector<double>& step_ms, double timed_wall_s,
                       const std::vector<double>& setup_s, Report& report) {
  report.metric("step_ms_p50", quantile(step_ms, 0.5));
  report.metric("step_ms_p90", quantile(step_ms, 0.9));
  report.metric("steps_per_s",
                timed_wall_s > 0
                    ? static_cast<double>(step_ms.size()) / timed_wall_s
                    : 0.0);
  report.metric("setup_s", quantile(setup_s, 0.5));
  report.metric("peak_rss_mb", peak_rss_mb());
  // The p90 is only meaningful with >= 10 samples beyond it.
  report.meta("timed_steps", static_cast<double>(step_ms.size()));
}

}  // namespace perfbench
