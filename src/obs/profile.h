// Hierarchical wall-time profiling scopes.
//
//   void one_iteration() {
//     A3CS_PROF_SCOPE("iter");
//     { A3CS_PROF_SCOPE("rollout"); ... }      // nests under "iter"
//     { A3CS_PROF_SCOPE("a2c-update"); ... }
//   }
//
// Scopes form a tree by lexical nesting (tracked with a thread-local cursor);
// the same name under the same parent accumulates total time and call count.
// Scope names must be string literals (or otherwise outlive the profiler) —
// nodes store the pointer, not a copy.
//
// Profiling is globally off by default. When disabled, a ProfScope costs one
// relaxed atomic load and a branch; no clock is read and no nodes are
// touched, so instrumented hot paths are essentially free. Enable with
// Profiler::set_enabled(true) (ObsConfig/A3CS_PROFILE=1 do this for runs).
//
// The end-of-run summary renders the tree as a util::TextTable with per-node
// total/mean/%-of-parent, and can be emitted into a TraceWriter as "profile"
// events for offline analysis by the trace_report tool.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace a3cs::obs {

class TraceWriter;

class Profiler {
 public:
  struct Node {
    const char* name;
    Node* parent;                  // nullptr for the root
    std::vector<Node*> children;   // append-only, guarded by Profiler mutex
    std::atomic<std::int64_t> total_ns{0};
    std::atomic<std::int64_t> calls{0};
  };

  struct FlatNode {
    std::string path;    // "/"-joined, e.g. "cosearch/iter/rollout"
    int depth = 0;
    std::int64_t total_ns = 0;
    std::int64_t calls = 0;
    double fraction_of_parent = 1.0;
  };

  static Profiler& global();

  static bool enabled() {
    return global().enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    global().enabled_.store(on, std::memory_order_relaxed);
  }

  // True while the calling thread is inside an open scope. A run that finds
  // itself enclosed (a pipeline phase around a co-search) leaves the
  // end-of-run report to the enclosing scope's owner.
  static bool in_scope();

  // Enters/leaves a scope on the calling thread. Exposed for ProfScope; not
  // meant to be called directly.
  Node* enter(const char* name);
  void leave(Node* node, std::int64_t elapsed_ns);

  // Depth-first snapshot of the tree (root excluded). Safe to call while
  // scopes are running; in-flight scopes simply aren't counted yet.
  std::vector<FlatNode> flatten() const;

  // Renders the hierarchy as an aligned table: scope, calls, total ms,
  // mean us, % of parent.
  void print_summary(std::ostream& out) const;

  // Emits one "profile" event per node into `trace`.
  void emit_to_trace(TraceWriter& trace) const;

  // Drops all recorded nodes (for test isolation / back-to-back runs).
  void reset();

 private:
  Profiler();
  void flatten_into(const Node* node, const std::string& prefix, int depth,
                    std::int64_t parent_ns,
                    std::vector<FlatNode>& out) const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards tree structure (child creation/iteration)
  Node root_;
};

// End-of-run report: emits the tree into the active trace, if any, and logs
// the summary table under "<run> wall-time profile" when `print_summary`.
void report_profile(const char* run, bool print_summary);

// RAII timer: enters the named scope on construction (when profiling is
// enabled), accumulates elapsed wall time on destruction.
class ProfScope {
 public:
  explicit ProfScope(const char* name) {
    if (Profiler::enabled()) {
      node_ = Profiler::global().enter(name);
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfScope() {
    if (node_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      Profiler::global().leave(node_, ns);
    }
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler::Node* node_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace a3cs::obs

#define A3CS_PROF_CONCAT_INNER(a, b) a##b
#define A3CS_PROF_CONCAT(a, b) A3CS_PROF_CONCAT_INNER(a, b)
// Times the enclosing block under `name` (a string literal) in the global
// hierarchical profiler.
#define A3CS_PROF_SCOPE(name) \
  ::a3cs::obs::ProfScope A3CS_PROF_CONCAT(a3cs_prof_scope_, __LINE__)(name)
