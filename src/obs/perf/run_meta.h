// Provenance metadata stamped into the Chrome trace's otherData block: git
// SHA, host fingerprint, thread count, A3CS_SCALE, wall-clock time. This is
// the ONE place wall-clock values are allowed to appear in perf output — every
// event outside the metadata block is timed on steady_clock
// (docs/BENCHMARKING.md).
#pragma once

#include <string>

namespace a3cs::obs::perf {

struct RunMeta {
  std::string git_sha;    // A3CS_GIT_SHA env > build-time stamp > "unknown"
  std::string host;       // "<nodename>/<machine>/<hw_concurrency>c"
  int threads = 1;        // resolved global ThreadPool size
  double scale = 1.0;     // util::bench_scale()
  std::string wall_time;  // ISO-8601, stamped at collection time
};

// Collects the current process's metadata (reads env, pool, clock once).
RunMeta collect_run_meta();

// Renders the meta block as a JSON object value (no trailing newline), keys
// in fixed order so emission is byte-stable for fixed field values.
std::string render_meta_json(const RunMeta& meta);

}  // namespace a3cs::obs::perf
