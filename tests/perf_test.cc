// Tests for the performance observability subsystem (src/obs/perf/): Chrome
// trace_events export well-formedness, per-kernel work counters, and the
// histogram reservoir's exact small-sample quantiles. The end-to-end case
// drives the real cosearch_full binary with A3CS_PROFILE_CHROME and checks
// its trace (balanced scopes, provenance metadata, work annotations),
// mirroring how ckpt_resume_test drives ckpt_run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "obs/perf/chrome_trace.h"
#include "obs/perf/work_counters.h"
#include "obs/profile.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace a3cs {
namespace {

using tensor::Shape;
using tensor::Tensor;

// A scratch file path that is removed when the fixture dies.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int run_command(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

// ------------------------------------------------------------ chrome trace --

// Per-(pid,tid) stacks of open scopes: every E event must close the
// innermost B of its lane, by name, and no B may stay open.
class LaneStacks {
 public:
  // Applies one trace event; non-duration phases are ignored.
  void apply(const obs::JsonValue& ev) {
    const std::string ph = ev.string_or("ph", "");
    if (ph != "B" && ph != "E") return;
    const std::string lane =
        std::to_string(static_cast<int>(ev.number_or("pid", 0))) + "/" +
        std::to_string(static_cast<int>(ev.number_or("tid", 0)));
    std::vector<std::string>& stack = open_[lane];
    if (ph == "B") {
      stack.push_back(ev.string_or("name", ""));
      return;
    }
    EXPECT_FALSE(stack.empty()) << "unbalanced E on lane " << lane;
    if (stack.empty()) return;
    EXPECT_EQ(stack.back(), ev.string_or("name", ""));
    stack.pop_back();
    ++closed_;
  }

  // Expects every lane closed; returns the number of matched B/E pairs.
  std::int64_t finish() const {
    for (const auto& [lane, stack] : open_) {
      EXPECT_TRUE(stack.empty()) << "unclosed B on lane " << lane;
    }
    return closed_;
  }

 private:
  std::map<std::string, std::vector<std::string>> open_;
  std::int64_t closed_ = 0;
};

// Walks traceEvents and checks per-(pid,tid) B/E balance; returns the E
// event count.
std::int64_t check_balanced(const obs::JsonValue& root) {
  const obs::JsonValue* events = root.find("traceEvents");
  EXPECT_NE(events, nullptr);
  LaneStacks lanes;
  for (const obs::JsonValue& ev : events->as_array()) lanes.apply(ev);
  return lanes.finish();
}

TEST(ChromeTrace, BalancedEventsWithWorkAnnotations) {
  TempFile tmp("/perf_chrome_unit.json");
  obs::ObsConfig cfg;
  cfg.profile_enabled = true;
  cfg.profile_chrome_path = tmp.path();
  obs::Profiler::set_enabled(true);
  {
    obs::perf::ChromeTraceSession session(cfg);
    ASSERT_TRUE(session.active());
    ASSERT_TRUE(obs::perf::chrome_trace_active());
    {
      A3CS_PROF_SCOPE("outer");
      {
        A3CS_PROF_SCOPE("unit-kernel");
        obs::perf::WorkCounters::named("unit-kernel").add(1000, 64, 32);
        obs::perf::WorkCounters::named("unit-kernel").add(500, 16, 8);
      }
    }
  }
  obs::Profiler::set_enabled(false);
  EXPECT_FALSE(obs::perf::chrome_trace_active());

  const obs::JsonValue root = obs::JsonValue::parse(slurp(tmp.path()));
  ASSERT_TRUE(root.is_object());
  const obs::JsonValue* meta = root.find("otherData");
  ASSERT_NE(meta, nullptr);
  EXPECT_FALSE(meta->string_or("git_sha", "").empty());
  EXPECT_FALSE(meta->string_or("host", "").empty());
  EXPECT_EQ(check_balanced(root), 2);

  // The kernel scope's E event carries the accumulated work annotation.
  bool found_annotated = false;
  for (const obs::JsonValue& ev : root.find("traceEvents")->as_array()) {
    if (ev.string_or("ph", "") != "E" ||
        ev.string_or("name", "") != "unit-kernel") {
      continue;
    }
    const obs::JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->number_or("flops", 0), 1500.0);
    EXPECT_DOUBLE_EQ(args->number_or("bytes_read", 0), 80.0);
    EXPECT_DOUBLE_EQ(args->number_or("bytes_written", 0), 40.0);
    found_annotated = true;
  }
  EXPECT_TRUE(found_annotated);
}

TEST(ChromeTrace, ScopesWithoutSessionEmitNothing) {
  obs::Profiler::set_enabled(true);
  {
    // No ChromeTraceSession: the thread-local stack must still balance and
    // no writer may be touched.
    A3CS_PROF_SCOPE("orphan");
    obs::perf::WorkCounters::named("orphan-kernel").add(1, 1, 1);
  }
  obs::Profiler::set_enabled(false);
  EXPECT_FALSE(obs::perf::chrome_trace_active());
}

// ----------------------------------------------------------- work counters --

TEST(WorkCounters, GemmFlopsMatchAnalyticModel) {
  obs::perf::reset_work_counters();
  const int m = 8, k = 16, n = 4;
  Tensor a(Shape::mat(m, k));
  Tensor b(Shape::mat(k, n));
  Tensor c(Shape::mat(m, n));
  for (std::int64_t i = 0; i < a.numel(); ++i) a[i] = 0.5f;
  for (std::int64_t i = 0; i < b.numel(); ++i) b[i] = 0.25f;
  tensor::gemm(a, false, b, false, c);

  const auto snap = obs::perf::work_snapshot();
  const auto it = snap.find("gemm");
  ASSERT_NE(it, snap.end());
  EXPECT_EQ(it->second.flops, 2ll * m * k * n);
  // A(m,k) + B(k,n) floats read, C(m,n) floats written.
  EXPECT_EQ(it->second.bytes_read, 4ll * (m * k + k * n));
  EXPECT_EQ(it->second.bytes_written, 4ll * m * n);

  obs::perf::reset_work_counters();
  const auto cleared = obs::perf::work_snapshot();
  const auto it2 = cleared.find("gemm");
  ASSERT_NE(it2, cleared.end());
  EXPECT_EQ(it2->second.flops, 0);
}

// ------------------------------------------------- histogram quantiles ----

TEST(MetricsHistogram, ExactQuantilesForSmallSamples) {
  obs::Histogram h({1.0, 10.0, 100.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  // 1..100: exact interpolation, far from any bucket bound.
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_NEAR(h.quantile(0.9), 90.1, 1e-9);
  h.reset();
  h.record(42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
}

TEST(MetricsHistogram, SnapshotCarriesQuantiles) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("perf.test.hist", {1.0, 10.0});
  h.record(2.0);
  h.record(4.0);
  h.record(6.0);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const auto it = snap.histograms.find("perf.test.hist");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_DOUBLE_EQ(it->second.p50, 4.0);
}

// ------------------------------------------------- cosearch_full e2e ----

// Drives the real pipeline binary with A3CS_PROFILE_CHROME and checks that
// the emitted trace carries its provenance metadata (git SHA, host), has
// per-(pid,tid) balanced scopes and work-annotated GEMM events — the
// acceptance contract of the Chrome exporter. Scale 0.001 keeps the run to a few seconds.
TEST(ChromeTrace, CosearchFullEmitsValidAnnotatedTrace) {
  TempFile trace("/perf_cosearch_trace.json");
  const std::string cmd = std::string("A3CS_SCALE=0.001 A3CS_PROFILE_CHROME=") +
                          trace.path() + " " + A3CS_COSEARCH_BIN +
                          " > /dev/null 2>&1";
  ASSERT_EQ(run_command(cmd), 0);

  // The trace is large (hundreds of thousands of events), so scan it
  // line-by-line — the writer puts the otherData header on the first line
  // and one event per line after it — instead of parsing the whole document
  // in-process.
  std::ifstream in(trace.path());
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const obs::JsonValue header = obs::JsonValue::parse(line + "]}");
  const obs::JsonValue* meta = header.find("otherData");
  ASSERT_NE(meta, nullptr) << "no otherData metadata in " << trace.path();
  EXPECT_FALSE(meta->string_or("git_sha", "").empty());
  EXPECT_FALSE(meta->string_or("host", "").empty());

  LaneStacks lanes;
  bool gemm_annotated = false;
  while (std::getline(in, line)) {
    if (line.empty() || line == "]}") continue;
    if (line.back() == ',') line.pop_back();
    const obs::JsonValue ev = obs::JsonValue::parse(line);
    lanes.apply(ev);
    const obs::JsonValue* args = ev.find("args");
    if (ev.string_or("name", "") == "gemm" && ev.string_or("ph", "") == "E" &&
        args != nullptr && args->find("flops") != nullptr) {
      gemm_annotated = true;
    }
  }
  EXPECT_GT(lanes.finish(), 50);
  EXPECT_TRUE(gemm_annotated)
      << "no GEMM E event with flops annotation in " << trace.path();
}

}  // namespace
}  // namespace a3cs
