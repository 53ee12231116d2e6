// Offline summary of a JSONL run trace produced with A3CS_TRACE_PATH=... (or
// ObsConfig::trace_enabled): per-phase wall-time breakdown, the hierarchical
// profile (when the run had A3CS_PROFILE=1), and the co-search trajectory —
// how the loss terms, alpha entropy and the predicted hardware cost evolved
// from the first to the last iteration.
//
//   ./examples/trace_report search.jsonl
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/jsonl.h"
#include "util/table.h"

using namespace a3cs;

namespace {

struct Series {
  std::vector<double> values;

  double head_mean(double frac) const { return slice_mean(0.0, frac); }
  double tail_mean(double frac) const { return slice_mean(1.0 - frac, 1.0); }
  double slice_mean(double from, double to) const {
    if (values.empty()) return 0.0;
    const auto n = static_cast<double>(values.size());
    std::size_t lo = static_cast<std::size_t>(from * n);
    std::size_t hi = static_cast<std::size_t>(to * n);
    if (hi > values.size()) hi = values.size();
    if (lo >= hi) lo = hi - 1;
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += values[i];
    return sum / static_cast<double>(hi - lo);
  }
  double min() const {
    double m = values.empty() ? 0.0 : values.front();
    for (double v : values) m = std::min(m, v);
    return m;
  }
  double max() const {
    double m = values.empty() ? 0.0 : values.front();
    for (double v : values) m = std::max(m, v);
    return m;
  }
};

std::string fmt(double v) { return util::TextTable::num(v, 4); }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: trace_report <trace.jsonl>\n";
    return 1;
  }
  const std::string path = argv[1];
  std::vector<obs::JsonValue> events;
  try {
    events = obs::parse_jsonl_file(path);
  } catch (const std::exception& e) {
    std::cerr << "trace_report: " << e.what() << "\n";
    return 1;
  }
  if (events.empty()) {
    std::cerr << "trace_report: " << path << " holds no events\n";
    return 1;
  }

  // Bucket events by type; collect every numeric key of the iteration
  // events into a named series.
  std::map<std::string, int> type_counts;
  std::map<std::string, Series> iter_series;
  std::vector<const obs::JsonValue*> phases;
  std::vector<const obs::JsonValue*> profile_nodes;
  std::vector<const obs::JsonValue*> guard_events;
  std::vector<const obs::JsonValue*> fleet_events;
  std::int64_t iters = 0;
  double span_ms = 0.0;
  for (const obs::JsonValue& ev : events) {
    const std::string type = ev.string_or("type", "?");
    ++type_counts[type];
    span_ms = std::max(span_ms, ev.number_or("ts_ms", 0.0));
    if (type == "phase") phases.push_back(&ev);
    if (type == "profile") profile_nodes.push_back(&ev);
    if (type == "guard_event") guard_events.push_back(&ev);
    if (type == "fleet_event") fleet_events.push_back(&ev);
    if (type == "cosearch_iter") {
      ++iters;
      for (const auto& [key, value] : ev.as_object()) {
        if (key == "ts_ms" || key == "iter" || !value.is_number()) continue;
        iter_series[key].values.push_back(value.as_number());
      }
    }
  }

  std::cout << "=== " << path << " ===\n";
  std::cout << events.size() << " events over " << fmt(span_ms / 1e3)
            << " s";
  std::cout << " (";
  bool first = true;
  for (const auto& [type, count] : type_counts) {
    if (!first) std::cout << ", ";
    std::cout << count << " " << type;
    first = false;
  }
  std::cout << ")\n";

  // ---- per-phase wall-time breakdown ------------------------------------
  if (!phases.empty()) {
    std::cout << "\nPer-phase wall time:\n";
    double total = 0.0;
    for (const auto* p : phases) total += p->number_or("dur_ms", 0.0);
    util::TextTable table({"phase", "ms", "%"});
    for (const auto* p : phases) {
      const double ms = p->number_or("dur_ms", 0.0);
      table.add_row({p->string_or("name", "?"), fmt(ms),
                     fmt(total > 0 ? 100.0 * ms / total : 0.0)});
    }
    table.add_row({"total", fmt(total), "100"});
    table.print(std::cout);
  }

  // ---- hierarchical profile (from A3CS_PROFILE=1 runs) ------------------
  if (!profile_nodes.empty()) {
    // A trace may carry several profile snapshots (e.g. one per run when
    // runs share a trace file); keep only each path's final — most complete —
    // emission, in the file (DFS) order of that last block.
    std::map<std::string, std::size_t> last_pos;
    for (std::size_t i = 0; i < profile_nodes.size(); ++i) {
      last_pos[profile_nodes[i]->string_or("path", "?")] = i;
    }
    std::vector<const obs::JsonValue*> deduped;
    for (std::size_t i = 0; i < profile_nodes.size(); ++i) {
      if (last_pos[profile_nodes[i]->string_or("path", "?")] == i) {
        deduped.push_back(profile_nodes[i]);
      }
    }
    std::cout << "\nHierarchical profile:\n";
    util::TextTable table({"scope", "calls", "total ms", "% parent"});
    for (const auto* n : deduped) {
      const std::string prof_path = n->string_or("path", "?");
      const auto depth = static_cast<std::size_t>(n->number_or("depth", 0.0));
      const std::size_t cut = prof_path.find_last_of('/');
      const std::string leaf =
          cut == std::string::npos ? prof_path : prof_path.substr(cut + 1);
      table.add_row({std::string(2 * depth, ' ') + leaf,
                     fmt(n->number_or("calls", 0.0)),
                     fmt(n->number_or("total_ms", 0.0)),
                     fmt(n->number_or("pct_of_parent", 0.0))});
    }
    table.print(std::cout);
  }

  // ---- guard activity (docs/ROBUSTNESS.md) ------------------------------
  if (!guard_events.empty()) {
    std::cout << "\nGuard activity (" << guard_events.size() << " events):\n";
    util::TextTable table({"iter", "kind", "check", "severity", "detail"});
    for (const auto* g : guard_events) {
      table.add_row({std::to_string(static_cast<std::int64_t>(
                         g->number_or("iter", -1.0))),
                     g->string_or("kind", "?"), g->string_or("check", ""),
                     g->string_or("severity", ""),
                     g->string_or("detail", "")});
    }
    table.print(std::cout);
  }

  // ---- fleet supervision (docs/FLEET.md) --------------------------------
  if (!fleet_events.empty()) {
    std::cout << "\nFleet activity (" << fleet_events.size() << " events):\n";
    util::TextTable table({"iter", "kind", "shard", "detail"});
    for (const auto* f : fleet_events) {
      table.add_row({std::to_string(static_cast<std::int64_t>(
                         f->number_or("iter", -1.0))),
                     f->string_or("kind", "?"),
                     std::to_string(static_cast<std::int64_t>(
                         f->number_or("shard", -1.0))),
                     f->string_or("detail", "")});
    }
    table.print(std::cout);
  }

  // ---- search trajectory ------------------------------------------------
  if (iters > 0) {
    std::cout << "\nCo-search trajectory (" << iters
              << " iterations; first vs last 10%):\n";
    util::TextTable table({"signal", "first 10%", "last 10%", "min", "max"});
    for (const auto& [key, series] : iter_series) {
      table.add_row({key, fmt(series.head_mean(0.1)),
                     fmt(series.tail_mean(0.1)), fmt(series.min()),
                     fmt(series.max())});
    }
    table.print(std::cout);
  } else {
    std::cout << "\n(no cosearch_iter events — was tracing enabled during a "
                 "co-search run?)\n";
  }
  return 0;
}
