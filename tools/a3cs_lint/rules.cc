#include "rules.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "lexer.h"
#include "model.h"

namespace a3cs_lint {
namespace {

// ------------------------------------------------------------- path scopes --

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_header(const std::string& path) {
  return path.size() > 2 && (path.rfind(".h") == path.size() - 2 ||
                             (path.size() > 4 &&
                              path.rfind(".hpp") == path.size() - 4));
}

// Numeric/compute directories where any clock read is a determinism smell.
bool in_numeric_dir(const std::string& p) {
  return starts_with(p, "src/tensor/") || starts_with(p, "src/nn/") ||
         starts_with(p, "src/nas/") || starts_with(p, "src/rl/") ||
         starts_with(p, "src/das/") || starts_with(p, "src/accel/") ||
         starts_with(p, "src/arcade/");
}

bool is_thread_pool_file(const std::string& p) {
  return p == "src/util/thread_pool.h" || p == "src/util/thread_pool.cc";
}

bool is_sio_file(const std::string& p) {
  return p == "src/util/state_io.h" || p == "src/util/state_io.cc";
}

// ------------------------------------------------------------ rule helpers --
// (The scope walker itself lives in model.cc — rules consume the ScopeInfo
// carried by the FileModel.)

struct Ctx {
  const std::string& path;
  const LexedFile& lex;
  const ScopeInfo& scopes;
  std::vector<Finding>* out;

  const std::vector<Token>& toks() const { return lex.tokens; }

  void report(int line, const char* rule, std::string msg) const {
    out->push_back(Finding{path, line, rule, std::move(msg)});
  }

  bool ident_at(std::size_t i, const char* text) const {
    return i < toks().size() && toks()[i].kind == TokKind::kIdent &&
           toks()[i].text == text;
  }
  bool punct_at(std::size_t i, const char* text) const {
    return i < toks().size() && toks()[i].kind == TokKind::kPunct &&
           toks()[i].text == text;
  }
  // `std :: name` immediately before token i+? — true when toks[i] is `name`
  // qualified by std::.
  bool std_qualified(std::size_t i) const {
    return i >= 2 && punct_at(i - 1, "::") && ident_at(i - 2, "std");
  }
  // Raw-source adjacency: any of `needles` appears within +-window lines.
  bool near_line(int line, int window,
                 const std::vector<std::string>& needles) const {
    const int lo = std::max(1, line - window);
    const int hi = std::min(static_cast<int>(lex.lines.size()),
                            line + window);
    for (int l = lo; l <= hi; ++l) {
      const std::string& text = lex.lines[static_cast<std::size_t>(l - 1)];
      for (const std::string& needle : needles) {
        if (text.find(needle) != std::string::npos) return true;
      }
    }
    return false;
  }
};

bool line_is_preprocessor(const Ctx& c, int line) {
  const std::string& text = c.lex.lines[static_cast<std::size_t>(line - 1)];
  const std::size_t first = text.find_first_not_of(" \t");
  return first != std::string::npos && text[first] == '#';
}

// ---------------------------------------------- arch-intrinsics-scoped --

// SIMD intrinsics are confined to src/tensor/backend/: every other layer
// stays portable and reaches vector code through the Backend kernel table,
// so a build without AVX2 only has to neuter one TU (kernels_avx2.cc
// compiles to a nullptr stub) instead of auditing the whole tree.
void rule_arch_intrinsics_scoped(const Ctx& c) {
  if (starts_with(c.path, "src/tensor/backend/")) return;
  // The lexer splits `#include <immintrin.h>` into punctuation + idents, so
  // match the header name textually — but only on preprocessor lines, so a
  // comment mentioning the header stays silent.
  static const char* kHeaders[] = {"immintrin.h", "x86intrin.h",
                                   "avxintrin.h", "emmintrin.h",
                                   "xmmintrin.h", "arm_neon.h"};
  for (std::size_t l = 1; l <= c.lex.lines.size(); ++l) {
    if (!line_is_preprocessor(c, static_cast<int>(l))) continue;
    const std::string& text = c.lex.lines[l - 1];
    for (const char* header : kHeaders) {
      if (text.find(header) != std::string::npos) {
        c.report(static_cast<int>(l), "arch-intrinsics-scoped",
                 std::string("#include <") + header +
                     "> outside src/tensor/backend/ — SIMD code lives "
                     "behind the kernel-backend table");
      }
    }
  }
  const auto& toks = c.toks();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    const bool intrinsic =
        t.rfind("_mm_", 0) == 0 || t.rfind("_mm256_", 0) == 0 ||
        t.rfind("_mm512_", 0) == 0 || t.rfind("__m128", 0) == 0 ||
        t.rfind("__m256", 0) == 0 || t.rfind("__m512", 0) == 0;
    if (intrinsic) {
      c.report(toks[i].line, "arch-intrinsics-scoped",
               t + " outside src/tensor/backend/ — add a Backend kernel "
                   "entry instead of inlining SIMD in portable code");
    }
  }
}

// ---------------------------------------------------------------- det-rand --

void rule_det_rand(const Ctx& c) {
  if (starts_with(c.path, "src/util/")) return;
  const auto& toks = c.toks();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if ((t == "rand" || t == "rand_r" || t == "drand48" || t == "lrand48") &&
        c.punct_at(i + 1, "(")) {
      c.report(toks[i].line, "det-rand",
               t + "() is seed-hostile; draw from an explicitly seeded "
                   "util::Rng instead");
    } else if (t == "srand" && c.punct_at(i + 1, "(")) {
      c.report(toks[i].line, "det-rand",
               "srand() mutates hidden global RNG state; seed a util::Rng "
               "instance instead");
    } else if (t == "random_device") {
      c.report(toks[i].line, "det-rand",
               "std::random_device is non-reproducible; derive streams from "
               "the run seed via util::Rng::split()");
    }
  }
}

// ----------------------------------------------------------- det-time-seed --

bool is_clock_token(const Ctx& c, std::size_t i) {
  if (c.toks()[i].kind != TokKind::kIdent) return false;
  const std::string& t = c.toks()[i].text;
  if (t == "system_clock" || t == "steady_clock" ||
      t == "high_resolution_clock" || t == "gettimeofday" ||
      t == "clock_gettime" || t == "timespec_get" || t == "__rdtsc" ||
      t == "rdtsc") {
    return true;
  }
  return (t == "time" || t == "clock") && c.punct_at(i + 1, "(");
}

void rule_det_time_seed(const Ctx& c) {
  const auto& toks = c.toks();
  // Wide enough to span `seed = static_cast<std::uint64_t>(
  // std::chrono::system_clock::now()...)` — the qualified-name tokens alone
  // put the clock 13 tokens past `seed`.
  constexpr std::size_t kWindow = 18;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    const bool seedish = t == "seed" || t == "reseed" || t == "set_seed" ||
                         (t == "Rng" && c.punct_at(i + 1, "("));
    if (!seedish) continue;
    const std::size_t lo = i >= kWindow ? i - kWindow : 0;
    const std::size_t hi = std::min(toks.size(), i + kWindow + 1);
    for (std::size_t j = lo; j < hi; ++j) {
      if (is_clock_token(c, j)) {
        c.report(toks[i].line, "det-time-seed",
                 "seed derived from a clock — runs become unreproducible; "
                 "thread the run seed through explicitly");
        break;
      }
    }
  }
}

// ---------------------------------------------------------- det-wall-clock --

void rule_det_wall_clock(const Ctx& c) {
  if (!in_numeric_dir(c.path)) return;
  const auto& toks = c.toks();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_clock_token(c, i)) {
      c.report(toks[i].line, "det-wall-clock",
               "clock read in numeric code (" + toks[i].text +
                   ") — results must not depend on time; measure in obs/ "
                   "or bench/ instead");
    }
  }
}

// ---------------------------------------------------------- det-bench-clock --

// Bench code must time with the monotonic std::chrono::steady_clock — a raw
// wall clock makes measurements NTP-step sensitive.
void rule_det_bench_clock(const Ctx& c) {
  if (!starts_with(c.path, "bench/")) return;
  const auto& toks = c.toks();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t == "system_clock" || t == "gettimeofday" || t == "timespec_get" ||
        (t == "time" && c.punct_at(i + 1, "(") && c.std_qualified(i))) {
      c.report(toks[i].line, "det-bench-clock",
               "wall clock (" + t +
                   ") in bench code — time with the monotonic "
                   "std::chrono::steady_clock so runs are NTP-immune");
    }
  }
}

// ------------------------------------------------------- det-unordered-iter --

void rule_det_unordered_iter(const Ctx& c) {
  const auto& toks = c.toks();
  const bool obs_path = starts_with(c.path, "src/obs/");

  // Names declared anywhere in this file with an unordered container type.
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        toks[i].text.rfind("unordered_", 0) != 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (c.punct_at(j, "<")) {  // skip template argument list
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (c.punct_at(j, "<")) ++depth;
        else if (c.punct_at(j, ">") && --depth == 0) { ++j; break; }
      }
    }
    while (c.punct_at(j, "&") || c.punct_at(j, "*") || c.punct_at(j, "::") ||
           (j < toks.size() && toks[j].kind == TokKind::kIdent &&
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
        !c.punct_at(j + 1, "(")) {
      unordered_names.insert(toks[j].text);
    }
  }

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!c.ident_at(i, "for") || !c.punct_at(i + 1, "(")) continue;
    if (!(obs_path || c.scopes.in_ser_fn[i])) continue;
    // Find the range-for ':' at paren depth 1, then scan the range
    // expression for unordered container names.
    int depth = 0;
    std::size_t colon = 0, close = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (c.punct_at(j, "(")) ++depth;
      else if (c.punct_at(j, ")")) {
        if (--depth == 0) { close = j; break; }
      } else if (c.punct_at(j, ":") && depth == 1 && colon == 0) {
        colon = j;
      }
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind != TokKind::kIdent) continue;
      if (unordered_names.count(toks[j].text) ||
          toks[j].text.rfind("unordered_", 0) == 0) {
        c.report(toks[i].line, "det-unordered-iter",
                 "iteration over an unordered container in a serialized/"
                 "emitted path — order is hash-seed dependent; iterate a "
                 "sorted view or use std::map");
        break;
      }
    }
  }
}

// ----------------------------------------------------------------- ser-pair --

void rule_ser_pair(const Ctx& c) {
  for (const auto& cls : c.scopes.classes) {
    if (cls.has_save == cls.has_load) continue;
    const std::string present = cls.has_save ? "save_state" : "load_state";
    const std::string missing = cls.has_save ? "load_state" : "save_state";
    const std::string name = cls.name.empty() ? "<anonymous>" : cls.name;
    c.report(cls.line, "ser-pair",
             "class " + name + " declares " + present + " without " + missing +
                 " — checkpoint round-trips require both");
  }
}

// --------------------------------------------------------------- ser-raw-io --

void rule_ser_raw_io(const Ctx& c) {
  const bool scoped = (starts_with(c.path, "src/ckpt/") ||
                       starts_with(c.path, "src/util/")) &&
                      !is_sio_file(c.path);
  if (!scoped) return;
  const auto& toks = c.toks();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if ((t == "fwrite" || t == "fread" || t == "memcpy") &&
        c.punct_at(i + 1, "(")) {
      c.report(toks[i].line, "ser-raw-io",
               t + " in a serialization layer bypasses the explicit-LE "
                   "util::sio helpers; struct layout / endianness would leak "
                   "into the on-disk format");
    }
  }
}

// ---------------------------------------------------------- conc-raw-thread --

void rule_conc_raw_thread(const Ctx& c) {
  if (is_thread_pool_file(c.path)) return;
  const auto& toks = c.toks();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if ((t == "thread" || t == "jthread" || t == "async") &&
        c.std_qualified(i)) {
      c.report(toks[i].line, "conc-raw-thread",
               "std::" + t + " outside util/thread_pool — parallel work must "
                             "go through ThreadPool::parallel_for so the "
                             "deterministic sharding contract holds");
    } else if (t == "pthread_create") {
      c.report(toks[i].line, "conc-raw-thread",
               "pthread_create outside util/thread_pool — use the "
               "deterministic ThreadPool instead");
    } else if (t == "detach" && c.punct_at(i + 1, "(") &&
               (c.punct_at(i - 1, ".") ||
                (c.punct_at(i - 1, ">") && c.punct_at(i - 2, "-")))) {
      c.report(toks[i].line, "conc-raw-thread",
               "detached threads outlive their owner and cannot be joined "
               "at checkpoint barriers — never detach");
    }
  }
}

// --------------------------------------------------------- conc-raw-process --

void rule_conc_raw_process(const Ctx& c) {
  if (starts_with(c.path, "src/fleet/")) return;
  static const std::vector<std::string> kProcessCalls = {
      "fork",   "vfork", "waitpid",     "wait4",        "waitid",
      "execl",  "execlp", "execle",     "execv",        "execvp",
      "execvpe", "execve", "posix_spawn", "posix_spawnp"};
  const auto& toks = c.toks();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (std::find(kProcessCalls.begin(), kProcessCalls.end(), t) ==
        kProcessCalls.end()) {
      continue;
    }
    if (!c.punct_at(i + 1, "(")) continue;
    // `obj.fork(...)` / `obj->waitpid(...)` are member calls on some other
    // abstraction, not the raw POSIX API.
    if (c.punct_at(i - 1, ".") ||
        (c.punct_at(i - 1, ">") && c.punct_at(i - 2, "-"))) {
      continue;
    }
    // A declaration (`int fork() {...}`, `pid_t waitpid(...)`) has a type
    // name directly before it; a call never does (except after `return`).
    if (i > 0 && toks[i - 1].kind == TokKind::kIdent &&
        toks[i - 1].text != "return") {
      continue;
    }
    c.report(toks[i].line, "conc-raw-process",
             t + " outside src/fleet/ — child-process lifecycle (spawn, "
                 "reap, restart, kill-on-hang) must go through the "
                 "FleetSupervisor so SIGCHLD handling and zombie reaping "
                 "stay in one place");
  }
}

// -------------------------------------------------------- conc-static-local --

const std::vector<std::string>& sync_needles() {
  static const std::vector<std::string> needles = {
      "mutex", "atomic", "lock_guard", "unique_lock", "scoped_lock",
      "call_once", "once_flag"};
  return needles;
}

bool decl_tokens_safe(const Ctx& c, std::size_t begin, std::size_t end) {
  for (std::size_t j = begin; j < end; ++j) {
    const Token& t = c.toks()[j];
    if (t.kind == TokKind::kIdent &&
        (t.text == "const" || t.text == "constexpr" || t.text == "atomic" ||
         t.text == "mutex" || t.text == "shared_mutex" ||
         t.text == "recursive_mutex" || t.text == "once_flag" ||
         t.text == "condition_variable" || t.text == "condition_variable_any")) {
      return true;
    }
    // A reference declaration (`static obs::Counter& hits = ...`) binds a
    // name to an object owned elsewhere — the registry idiom; allowed.
    if (t.kind == TokKind::kPunct && t.text == "&") return true;
  }
  return false;
}

void rule_conc_static_local(const Ctx& c) {
  if (!starts_with(c.path, "src/")) return;
  const auto& toks = c.toks();
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!c.ident_at(i, "static") || !c.scopes.in_function[i]) continue;
    // Declaration tokens run to the first top-level `=`, `;` or `{`.
    std::size_t end = i + 1;
    int paren = 0, angle = 0;
    for (; end < toks.size(); ++end) {
      const Token& t = toks[end];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(") ++paren;
      else if (t.text == ")") --paren;
      else if (t.text == "<") ++angle;
      else if (t.text == ">") angle = std::max(0, angle - 1);
      else if ((t.text == "=" || t.text == ";" || t.text == "{") &&
               paren == 0 && angle == 0) {
        break;
      }
    }
    if (decl_tokens_safe(c, i + 1, end)) continue;
    if (c.near_line(toks[i].line, 4, sync_needles())) continue;
    c.report(toks[i].line, "conc-static-local",
             "mutable function-local static without std::atomic/mutex "
             "protection nearby — racy under the thread pool and invisible "
             "to checkpoints");
  }
}

// ------------------------------------------------------ conc-mutable-global --

void rule_conc_mutable_global(const Ctx& c) {
  if (!starts_with(c.path, "src/")) return;
  const auto& toks = c.toks();
  const std::size_t n = toks.size();
  static const std::set<std::string> kDeclKeywords = {
      "using",   "typedef",  "class",  "struct",   "enum",     "namespace",
      "template","extern",   "friend", "operator", "static_assert",
      "concept", "requires", "union"};
  // thread_local state is per-thread (not shared) and volatile
  // std::sig_atomic_t is the one sanctioned signal-flag type.
  static const std::set<std::string> kSafeTypes = {
      "const",        "constexpr",   "atomic", "mutex", "shared_mutex",
      "recursive_mutex", "once_flag", "condition_variable", "thread_local",
      "sig_atomic_t"};

  std::size_t i = 0;
  while (i < n) {
    // A candidate declaration starts with an identifier at namespace scope
    // on a non-preprocessor line.
    if (toks[i].kind != TokKind::kIdent || !c.scopes.at_ns_scope[i] ||
        line_is_preprocessor(c, toks[i].line)) {
      ++i;
      continue;
    }
    bool has_paren = false, has_eq = false, safe = false, keyword = false;
    bool abandoned = false;
    int paren = 0, brace = 0;
    std::size_t j = i;
    for (; j < n; ++j) {
      const Token& t = toks[j];
      if (t.kind == TokKind::kIdent) {
        if (kDeclKeywords.count(t.text)) keyword = true;
        if (kSafeTypes.count(t.text)) safe = true;
        continue;
      }
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(") {
        if (!has_eq) has_paren = true;
        ++paren;
      } else if (t.text == ")") {
        --paren;
      } else if (t.text == "=" && paren == 0 && brace == 0) {
        has_eq = true;
      } else if (t.text == "{") {
        if (keyword || (has_paren && !has_eq)) {
          // namespace/class head or function definition body — not a
          // variable; resume scanning after the brace token (the body's
          // tokens fail the scope test on their own).
          abandoned = true;
          break;
        }
        ++brace;  // brace initializer
      } else if (t.text == "}") {
        --brace;
      } else if (t.text == ";" && paren == 0 && brace == 0) {
        break;
      }
    }
    if (abandoned || j >= n) {
      i = j + 1;
      continue;
    }
    if (!keyword && !safe && !has_paren) {
      c.report(toks[i].line, "conc-mutable-global",
               "mutable namespace-scope variable — shared state must be "
               "std::atomic, mutex-guarded, or const");
    }
    i = j + 1;
  }
}

// ---------------------------------------------------------- hygiene rules --

void rule_hyg_pragma_once(const Ctx& c) {
  if (!is_header(c.path)) return;
  const auto& toks = c.toks();
  const bool ok = toks.size() >= 3 && c.punct_at(0, "#") &&
                  c.ident_at(1, "pragma") && c.ident_at(2, "once");
  if (!ok) {
    c.report(1, "hyg-pragma-once",
             "header must start with #pragma once (before any code)");
  }
}

void rule_hyg_using_namespace(const Ctx& c) {
  if (!is_header(c.path)) return;
  const auto& toks = c.toks();
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (c.ident_at(i, "using") && c.ident_at(i + 1, "namespace")) {
      c.report(toks[i].line, "hyg-using-namespace",
               "using-namespace in a header leaks into every includer");
    }
  }
}

}  // namespace

// ------------------------------------------------------------------ driver --

std::vector<Finding> lint_file_model(const FileModel& model) {
  std::vector<Finding> all;
  const Ctx ctx{model.path, model.lex, model.scopes, &all};

  rule_arch_intrinsics_scoped(ctx);
  rule_det_rand(ctx);
  rule_det_time_seed(ctx);
  rule_det_wall_clock(ctx);
  rule_det_bench_clock(ctx);
  rule_det_unordered_iter(ctx);
  rule_ser_pair(ctx);
  rule_ser_raw_io(ctx);
  rule_conc_raw_thread(ctx);
  rule_conc_raw_process(ctx);
  rule_conc_static_local(ctx);
  rule_conc_mutable_global(ctx);
  rule_hyg_pragma_once(ctx);
  rule_hyg_using_namespace(ctx);

  std::vector<Finding> kept;
  for (auto& f : all) {
    if (is_suppressed(model.lex, f.line, f.rule)) continue;
    kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
  });
  return kept;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& source) {
  return lint_file_model(build_file_model(path, source));
}

std::vector<std::pair<std::string, std::string>> rule_catalog() {
  return {
      {"arch-intrinsics-scoped",
       "SIMD intrinsics (<immintrin.h>, _mm*/__m*) outside "
       "src/tensor/backend/"},
      {"arch-layering",
       "src/ include that violates the declared layer DAG "
       "(tools/a3cs_lint/layers.txt) or forms a module cycle"},
      {"conc-lock-order",
       "mutex pair acquired in conflicting orders across the repo, or a "
       "lock held across fork() in src/fleet/"},
      {"conc-mutable-global",
       "mutable namespace-scope variable in src/ without atomic/mutex type"},
      {"conc-raw-process",
       "fork/exec*/waitpid/posix_spawn outside src/fleet/"},
      {"conc-raw-thread",
       "std::thread/std::async/detach/pthread_create outside "
       "util/thread_pool"},
      {"conc-static-local",
       "mutable function-local static in src/ without atomic/mutex nearby"},
      {"det-bench-clock",
       "wall clock (system_clock/gettimeofday/...) in bench/ code"},
      {"det-rand",
       "rand()/srand()/std::random_device outside src/util/"},
      {"det-time-seed", "RNG seed derived from a wall clock or counter"},
      {"det-unordered-iter",
       "unordered-container iteration in save/load or src/obs/ emission"},
      {"det-wall-clock",
       "clock read inside numeric code (tensor/nn/nas/rl/das/accel/arcade)"},
      {"hyg-pragma-once", "header does not start with #pragma once"},
      {"hyg-using-namespace", "using-namespace directive in a header"},
      {"ser-field-coverage",
       "data member of a save_state/load_state class missing from either "
       "body"},
      {"ser-layout-fingerprint",
       "src/ckpt/section_file.h changed without a kCkptFormatVersion bump"},
      {"ser-pair", "class declares save_state xor load_state"},
      {"ser-raw-io",
       "fwrite/fread/memcpy in src/ckpt/ or src/util/ outside util::sio"},
  };
}

// ------------------------------------------------- A3CK layout fingerprint --

std::uint64_t layout_fingerprint(const std::string& header_source) {
  const LexedFile lexed = lex(header_source);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  auto mix = [&h](unsigned char byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const Token& t : lexed.tokens) {
    mix(static_cast<unsigned char>(t.kind));
    for (const char ch : t.text) mix(static_cast<unsigned char>(ch));
    mix(0);
  }
  return h;
}

int parse_format_version(const std::string& header_source) {
  const LexedFile lexed = lex(header_source);
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        toks[i].text != "kCkptFormatVersion") {
      continue;
    }
    for (std::size_t j = i + 1; j < std::min(toks.size(), i + 6); ++j) {
      if (toks[j].kind == TokKind::kNumber) {
        return std::stoi(toks[j].text);
      }
      if (toks[j].kind == TokKind::kPunct && toks[j].text == ";") break;
    }
  }
  return -1;
}

namespace {

std::string to_hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return s;
}

}  // namespace

std::string render_fingerprint_file(const std::string& header_source) {
  std::ostringstream out;
  out << "# A3CK container layout fingerprint. Regenerate after a\n"
         "# deliberate format change (kCkptFormatVersion bump) with:\n"
         "#   a3cs_lint --repo-root . --update-a3ck-fingerprint\n"
         "# See docs/STATIC_ANALYSIS.md (rule ser-layout-fingerprint).\n"
      << "version " << parse_format_version(header_source) << "\n"
      << "fingerprint " << to_hex(layout_fingerprint(header_source)) << "\n";
  return out.str();
}

std::vector<Finding> check_layout_fingerprint(
    const std::string& header_path, const std::string& header_source,
    const std::string& fingerprint_file_content) {
  std::vector<Finding> out;
  constexpr const char* kRule = "ser-layout-fingerprint";

  int recorded_version = -2;
  std::string recorded_fp;
  std::istringstream in(fingerprint_file_content);
  std::string key;
  while (in >> key) {
    if (key == "version") in >> recorded_version;
    else if (key == "fingerprint") in >> recorded_fp;
    else in.ignore(1 << 20, '\n');  // comment / unknown line
  }

  const int version = parse_format_version(header_source);
  const std::string fp = to_hex(layout_fingerprint(header_source));

  if (version < 0) {
    out.push_back({header_path, 1, kRule,
                   "kCkptFormatVersion literal not found — the A3CK format "
                   "version must be an integer constant in this header"});
    return out;
  }
  if (recorded_version == -2 || recorded_fp.empty()) {
    out.push_back({header_path, 1, kRule,
                   "missing or invalid tools/a3cs_lint/a3ck_layout.txt — "
                   "run a3cs_lint --update-a3ck-fingerprint"});
    return out;
  }
  if (fp == recorded_fp && version == recorded_version) return out;
  if (version == recorded_version) {
    out.push_back({header_path, 1, kRule,
                   "A3CK section layout changed but kCkptFormatVersion is "
                   "still " + std::to_string(version) +
                       " — bump the version, then run a3cs_lint "
                       "--update-a3ck-fingerprint"});
  } else {
    out.push_back({header_path, 1, kRule,
                   "kCkptFormatVersion is now " + std::to_string(version) +
                       " (recorded: " + std::to_string(recorded_version) +
                       ") — refresh the record with a3cs_lint "
                       "--update-a3ck-fingerprint"});
  }
  return out;
}

}  // namespace a3cs_lint
