// Publishes thread-pool occupancy into the metrics registry, bridging the
// util-layer ThreadPool (which cannot depend on obs/) to the observability
// stack. Call at phase boundaries / end of run; gauges are overwritten with
// the pool's lifetime totals:
//
//   exec.threads            configured executor count
//   pool.tasks_executed     tasks run by parallel regions
//   pool.regions_parallel   parallel_for calls that fanned out
//   pool.regions_inline     parallel_for calls that ran serially inline
//   pool.tasks.<label>      per-phase task counts (gemm, im2col, col2im,
//                           env-step, nas-topk, serve-eval, ...)
//   pool.regions.<label>    per-phase region counts
#pragma once

namespace a3cs::util {
class ThreadPool;
}

namespace a3cs::obs {

// Snapshot `pool` (default: the global pool) into the registry and, when a
// trace session is active, emit one "exec" event with the same numbers.
void record_exec_stats(const util::ThreadPool* pool = nullptr);

}  // namespace a3cs::obs
