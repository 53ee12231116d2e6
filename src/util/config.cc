#include "util/config.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <utility>

namespace a3cs::util {

namespace {

// Parses env var `name` strictly: returns an error string when it is set but
// not a full valid number (or violates the positivity requirement).
std::string strict_env_error(const char* name, bool integer,
                             bool require_positive) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return "";
  const std::string text(raw);
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    if (integer) {
      value = static_cast<double>(std::stoll(text, &consumed));
    } else {
      value = std::stod(text, &consumed);
    }
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != text.size()) {
    return std::string(name) + "=\"" + text + "\" is not a valid " +
           (integer ? "integer" : "number");
  }
  if (require_positive && value <= 0.0) {
    return std::string(name) + "=\"" + text + "\" must be > 0";
  }
  return "";
}

}  // namespace

double bench_scale() {
  static const double scale = [] {
    const double v = env_double("A3CS_SCALE", 1.0);
    return std::clamp(v, 1e-3, 1e3);
  }();
  return scale;
}

std::vector<std::string> validate_bench_env() {
  struct Check {
    const char* name;
    bool integer;
    bool require_positive;
  };
  const Check checks[] = {{"A3CS_SCALE", false, true},
                          {"A3CS_EVAL_EPISODES", true, true},
                          {"A3CS_THREADS", true, false}};
  std::vector<std::string> errors;
  for (const Check& c : checks) {
    std::string err = strict_env_error(c.name, c.integer, c.require_positive);
    if (!err.empty()) errors.push_back(std::move(err));
  }
  return errors;
}

std::int64_t scaled_steps(std::int64_t steps, std::int64_t min_steps) {
  const double scaled = static_cast<double>(steps) * bench_scale();
  return std::max<std::int64_t>(min_steps, static_cast<std::int64_t>(scaled));
}

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* env = std::getenv(name.c_str());
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env) return fallback;
  return static_cast<std::int64_t>(v);
}

double env_double(const std::string& name, double fallback) {
  const char* env = std::getenv(name.c_str());
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env) return fallback;
  return v;
}

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* env = std::getenv(name.c_str());
  return env == nullptr ? fallback : std::string(env);
}

}  // namespace a3cs::util
