#include "obs/perf/run_meta.h"

#include <sys/utsname.h>

#include <thread>

#include "obs/trace.h"
#include "util/config.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace a3cs::obs::perf {

namespace {

// Build-time git SHA injected by CMake (see src/obs/CMakeLists.txt); the
// A3CS_GIT_SHA environment variable overrides it so CI can stamp artifacts
// without reconfiguring.
#ifndef A3CS_GIT_SHA
#define A3CS_GIT_SHA "unknown"
#endif

std::string host_fingerprint() {
  struct utsname u {};
  std::string node = "unknown";
  std::string machine = "unknown";
  if (uname(&u) == 0) {
    node = u.nodename;
    machine = u.machine;
  }
  // Hardware query only, no thread creation. A3CS_LINT(conc-raw-thread)
  const unsigned hc = std::thread::hardware_concurrency();
  return node + "/" + machine + "/" + std::to_string(hc) + "c";
}

}  // namespace

RunMeta collect_run_meta() {
  RunMeta meta;
  meta.git_sha = util::env_string("A3CS_GIT_SHA", A3CS_GIT_SHA);
  meta.host = host_fingerprint();
  meta.threads = util::ThreadPool::global().threads();
  meta.scale = util::bench_scale();
  meta.wall_time = util::iso8601_now();
  return meta;
}

std::string render_meta_json(const RunMeta& meta) {
  std::string out = "{\"git_sha\":";
  TraceWriter::append_json_string(out, meta.git_sha);
  out += ",\"host\":";
  TraceWriter::append_json_string(out, meta.host);
  out += ",\"threads\":" + std::to_string(meta.threads);
  out += ",\"scale\":";
  TraceWriter::append_json_number(out, meta.scale);
  out += ",\"wall_time\":";
  TraceWriter::append_json_string(out, meta.wall_time);
  out += "}";
  return out;
}

}  // namespace a3cs::obs::perf
