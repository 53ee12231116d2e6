// Environment-variable driven experiment scaling.
//
// Every benchmark honors A3CS_SCALE (a positive float, default 1.0) that
// multiplies all training-step budgets, so the same binaries can run a quick
// CI pass (A3CS_SCALE=0.1) or a long faithful run (A3CS_SCALE=10).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace a3cs::util {

// Value of A3CS_SCALE, clamped to [1e-3, 1e3]; 1.0 when unset/invalid.
double bench_scale();

// Strict check of the bench-relevant environment variables (A3CS_SCALE,
// A3CS_EVAL_EPISODES, A3CS_THREADS): a value that is set but malformed or out
// of range yields one human-readable error each. Empty result = all valid.
// bench_scale() and env_int() fall back silently, so the paper benches call
// this first and refuse to start on a typo.
std::vector<std::string> validate_bench_env();

// steps * bench_scale(), at least `min_steps`.
std::int64_t scaled_steps(std::int64_t steps, std::int64_t min_steps = 64);

// Reads an integer environment variable, or `fallback` when unset/invalid.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

// Reads a float environment variable, or `fallback` when unset/invalid.
double env_double(const std::string& name, double fallback);

// Reads a string environment variable, or `fallback` when unset.
std::string env_string(const std::string& name, const std::string& fallback);

}  // namespace a3cs::util
