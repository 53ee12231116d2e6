#include "obs/profile.h"

#include <cstring>
#include <sstream>

#include "obs/perf/chrome_trace.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/table.h"

namespace a3cs::obs {
namespace {

// Per-thread position in the scope tree; nullptr means "at the root". Each
// thread walks its own path, so concurrent scopes under the same parent
// merge into shared nodes (totals and call counts just accumulate).
thread_local Profiler::Node* t_cursor = nullptr;

}  // namespace

Profiler::Profiler() : root_{"", nullptr, {}, {}, {}} {}

Profiler& Profiler::global() {
  // Leaked singleton: magic-static init is thread-safe, the pointer is never
  // reassigned, and all mutation goes through mu_. A3CS_LINT(conc-static-local)
  static Profiler* profiler = new Profiler();
  return *profiler;
}

bool Profiler::in_scope() { return t_cursor != nullptr; }

Profiler::Node* Profiler::enter(const char* name) {
  // Chrome-trace Begin event (and the frame WorkCounters annotate) happens
  // before taking the profiler mutex so concurrent scopes don't serialize on
  // it; the chrome writer has its own lock.
  perf::chrome_scope_begin(name);
  Node* parent = t_cursor != nullptr ? t_cursor : &root_;
  std::lock_guard<std::mutex> lock(mu_);
  for (Node* child : parent->children) {
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      t_cursor = child;
      return child;
    }
  }
  Node* child = new Node{name, parent, {}, {}, {}};
  parent->children.push_back(child);
  t_cursor = child;
  return child;
}

void Profiler::leave(Node* node, std::int64_t elapsed_ns) {
  node->total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  node->calls.fetch_add(1, std::memory_order_relaxed);
  t_cursor = node->parent == &root_ ? nullptr : node->parent;
  perf::chrome_scope_end();
}

void Profiler::flatten_into(const Node* node, const std::string& prefix,
                            int depth, std::int64_t parent_ns,
                            std::vector<FlatNode>& out) const {
  for (const Node* child : node->children) {
    FlatNode flat;
    flat.path = prefix.empty() ? child->name : prefix + "/" + child->name;
    flat.depth = depth;
    flat.total_ns = child->total_ns.load(std::memory_order_relaxed);
    flat.calls = child->calls.load(std::memory_order_relaxed);
    flat.fraction_of_parent =
        parent_ns > 0
            ? static_cast<double>(flat.total_ns) /
                  static_cast<double>(parent_ns)
            : 1.0;
    const std::string child_prefix = flat.path;
    const std::int64_t child_ns = flat.total_ns;
    out.push_back(std::move(flat));
    flatten_into(child, child_prefix, depth + 1, child_ns, out);
  }
}

std::vector<Profiler::FlatNode> Profiler::flatten() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Top-level scopes are shown as fractions of their combined total, so the
  // first column of a single-root profile reads as 100%.
  std::int64_t top_total = 0;
  for (const Node* child : root_.children) {
    top_total += child->total_ns.load(std::memory_order_relaxed);
  }
  std::vector<FlatNode> out;
  flatten_into(&root_, "", 0, top_total, out);
  return out;
}

void Profiler::print_summary(std::ostream& out) const {
  const std::vector<FlatNode> nodes = flatten();
  if (nodes.empty()) return;
  util::TextTable table({"scope", "calls", "total ms", "mean us", "% parent"});
  for (const FlatNode& n : nodes) {
    const std::size_t cut = n.path.find_last_of('/');
    const std::string leaf =
        cut == std::string::npos ? n.path : n.path.substr(cut + 1);
    const double total_ms = static_cast<double>(n.total_ns) / 1e6;
    const double mean_us =
        n.calls > 0
            ? static_cast<double>(n.total_ns) / static_cast<double>(n.calls) /
                  1e3
            : 0.0;
    table.add_row({std::string(static_cast<std::size_t>(2 * n.depth), ' ') +
                       leaf,
                   std::to_string(n.calls), util::TextTable::num(total_ms, 2),
                   util::TextTable::num(mean_us, 2),
                   util::TextTable::num(100.0 * n.fraction_of_parent, 1)});
  }
  table.print(out);
}

void Profiler::emit_to_trace(TraceWriter& trace) const {
  for (const FlatNode& n : flatten()) {
    trace.event("profile")
        .kv("path", n.path)
        .kv("depth", n.depth)
        .kv("calls", n.calls)
        .kv("total_ms", static_cast<double>(n.total_ns) / 1e6)
        .kv("pct_of_parent", 100.0 * n.fraction_of_parent);
  }
}

namespace {
void delete_subtree(Profiler::Node* node) {
  for (Profiler::Node* child : node->children) delete_subtree(child);
  delete node;
}
}  // namespace

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Node* child : root_.children) delete_subtree(child);
  root_.children.clear();
  t_cursor = nullptr;
}

void report_profile(const char* run, bool print_summary) {
  if (trace_active()) Profiler::global().emit_to_trace(*global_trace());
  if (print_summary) {
    std::ostringstream oss;
    Profiler::global().print_summary(oss);
    A3CS_LOG(INFO) << run << " wall-time profile:\n" << oss.str();
  }
}

}  // namespace a3cs::obs
