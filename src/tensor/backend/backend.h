// Pluggable kernel backends for the tensor/nn hot paths.
//
// A Backend is a table of SHARD-LEVEL kernel functions: each entry computes
// one contiguous shard of a parallel region (a GEMM row panel, a span of
// im2col column-rows, a channel range of col2im). Conv2d and Linear both
// run on the one GEMM entry, so these three kernels are all the table holds.
// The parallel orchestration — shard boundaries, grains, work counters,
// profiling scopes — stays in tensor/ops.cc and is IDENTICAL for every
// backend, so the determinism contract of docs/PERFORMANCE.md (fixed
// contiguous shards, disjoint writes, fixed reduction order) holds per
// backend at every thread count.
//
// Two backends exist:
//  - "scalar": the blocked 4x8 register-tile kernels, compiled with the
//    portable baseline flags. The reference the other backend is checked
//    against, and what the default resolves to on hosts without AVX2+FMA.
//  - "avx2":   256-bit AVX2/FMA kernels (packed 6x16 GEMM micro-kernel,
//    vectorized im2col/col2im), compiled per-TU with -mavx2 -mfma and
//    registered only when the host CPU supports both. Deterministic across
//    thread counts, but NOT bit-identical to scalar: FMA contracts the
//    multiply-add rounding step. Cross-backend agreement is enforced under a
//    documented ULP tolerance by tests/backend_check_test.cc via
//    tensor/backend/check.h.
//
// Selection: A3CS_BACKEND={scalar,avx2,auto} (default auto). "auto" picks
// the fastest backend the CPU supports (avx2 where available, else scalar);
// A3CS_BACKEND=scalar reproduces the reference rounding on any host. Asking
// for avx2 on a host without AVX2+FMA warns and falls back to scalar.
// Programmatic override via select() / ScopedBackend (benches sweep the
// backend dimension with it).
#pragma once

#include <string>
#include <vector>

#include "tensor/ops.h"

namespace a3cs::tensor::backend {

// Shard-level kernel table. All pointers are non-null in a registered
// backend. Contracts (shared by every implementation):
//
//  gemm_rows: C[r0:r1, :] = alpha * op(A)[r0:r1, :] @ op(B) + beta * C[...],
//    row-major, a_cols/b_cols are the storage row widths of A and B. Must
//    not read C when beta == 0 (C may be uninitialized). k == 0 degenerates
//    to C = beta * C.
//  im2col_rows: fill column-matrix rows [cr0, cr1) (each row is one
//    (channel, ky, kx) triple) from the NCHW input. Pure data movement —
//    bit-exact across backends.
//  col2im_channels: scatter-add column rows of channels [c0, c1) into the
//    pre-zeroed NCHW gradient image, ascending column-row order per channel.
struct Backend {
  const char* name;

  void (*gemm_rows)(const float* a, bool trans_a, const float* b, bool trans_b,
                    float* c, int r0, int r1, int k, int n, float alpha,
                    float beta, int a_cols, int b_cols);

  void (*im2col_rows)(const float* in, const ConvGeometry& g, float* out,
                      int cr0, int cr1);

  void (*col2im_channels)(const float* cols, const ConvGeometry& g, float* out,
                          int c0, int c1);
};

// The portable blocked-scalar reference backend (always available).
const Backend& scalar_backend();

// The AVX2/FMA backend, or nullptr when the TU was compiled without AVX2
// support or the running CPU lacks avx2/fma.
const Backend* avx2_backend();

// True when the running CPU (and the build) can execute the avx2 backend.
bool cpu_supports_avx2();

// The active backend. First call resolves A3CS_BACKEND; later calls are a
// single relaxed atomic load.
const Backend& active();

// Selects a backend by name ("scalar", "avx2", "auto"). Returns false (and
// leaves the active backend unchanged) for unknown or unsupported names.
bool select(const std::string& name);

// Re-reads A3CS_BACKEND (unset means "auto") and applies it. Unknown or
// unsupported values warn and fall back to scalar, mirroring the env
// handling of obs::ObsConfig.
void select_from_env();

// Names of the backends usable on this host, scalar first.
std::vector<std::string> available_names();

// RAII backend override for benches and the cross-backend checker.
class ScopedBackend {
 public:
  explicit ScopedBackend(const Backend& b);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  const Backend* prev_;
};

}  // namespace a3cs::tensor::backend
