// Analytical performance/resource predictor in the style of DNN-Chip
// Predictor / AutoDNNchip — the same class of predictor the paper itself
// uses to drive its accelerator search (Sec. V-A, "A3C-S makes use of a SOTA
// accelerator performance predictor to obtain fast and reliable estimation
// during search").
//
// Model summary (per layer, on its assigned chunk):
//   compute_cycles = MACs / effective_parallelism * noc_efficiency
//                    + systolic fill/drain per tile
//   memory_cycles  = moved_bytes / per-chunk DRAM bytes-per-cycle, where
//                    moved_bytes accounts for tiling-induced refetch whenever
//                    a tensor exceeds its buffer slice
//   layer_cycles   = max(compute, memory)          (double buffering)
// Chunk latency is the sum over its layers; the pipeline initiation interval
// (II) is the max chunk latency; FPS = clock / II. Resources: 1 DSP per PE;
// BRAM slices proportional to each chunk's DSP share.
#pragma once

#include <cstddef>
#include <vector>

#include "accel/hw_types.h"
#include "nn/layer_spec.h"

namespace a3cs::accel {

// Config-independent per-layer workload quantities — everything evaluate()
// needs from a LayerSpec, decomposed once per network instead of once per
// candidate config. The DAS sweeps (src/das) hoist this out of the
// per-config loop, so a search touching thousands of configs pays the
// decomposition once. Values are the *same doubles* the spec-based path
// computes, so prepared evaluation is bit-exact with evaluate(specs,...).
struct LayerWorkload {
  double macs = 0.0;
  int ic = 1;  // reduction channels (1 for depthwise — nothing to reduce)
  int oc = 1;
  int out_h = 1, out_w = 1;
  int kernel = 1;
  int group = 0;
  double in_bytes = 0.0;
  double w_bytes = 0.0;
  double out_bytes = 0.0;
  double psum_bytes = 0.0;
};

struct PreparedNetwork {
  std::vector<LayerWorkload> layers;
  int num_groups = 0;
};

// Decomposes a network once; reusable across any number of evaluate() calls.
PreparedNetwork prepare_network(const std::vector<nn::LayerSpec>& specs);

struct LayerCost {
  double compute_cycles = 0.0;
  double memory_cycles = 0.0;
  double cycles = 0.0;       // max of the two
  double sram_bytes = 0.0;   // on-chip working set this layer occupies
  double dram_bytes = 0.0;   // off-chip traffic per inference
  double energy_nj = 0.0;    // MAC + SRAM + DRAM energy per inference
  int chunk = 0;
};

// Per-operation energy coefficients (nJ), 16-bit datapath, 45nm-class
// numbers in the spirit of the Eyeriss/DNN-Chip-Predictor energy tables:
// a DRAM access costs ~2 orders of magnitude more than a MAC.
struct EnergyModel {
  double mac_nj = 0.003;
  double sram_per_byte_nj = 0.006;
  double dram_per_byte_nj = 0.16;
};

struct HwEval {
  bool feasible = true;           // within DSP/BRAM budget
  double ii_cycles = 0.0;         // pipeline initiation interval
  double latency_cycles = 0.0;    // end-to-end single-frame latency
  double fps = 0.0;               // clock / II (0 when infeasible)
  double energy_nj = 0.0;         // energy per inference
  int dsp_used = 0;
  double bram_used = 0.0;         // BRAM18K blocks
  double resource_overflow = 0.0; // normalized overshoot (0 when feasible)
  std::vector<LayerCost> layers;
  std::vector<double> chunk_cycles;

  // Cycles attributed to one structural group (for Eq. 8's layer-wise cost).
  double group_cycles(const std::vector<nn::LayerSpec>& specs,
                      int group) const;

  // Multi-line human-readable summary (FPS, resources, per-chunk cycles).
  std::string report() const;
};

// Relative weights of the cost terms inside L_cost. The paper optimizes
// latency/FPS; the energy term enables energy(-delay) objectives on the same
// engine (ablatable via bench_ablation_lambda / DAS cost weights).
struct CostWeights {
  double latency = 1.0;     // per ms of initiation interval
  double energy = 0.0;      // per uJ of inference energy
  double barrier = 10.0;    // per unit of normalized resource overflow
};

class Predictor {
 public:
  explicit Predictor(FpgaBudget budget = FpgaBudget{},
                     EnergyModel energy = EnergyModel{},
                     CostWeights weights = CostWeights{});

  HwEval evaluate(const std::vector<nn::LayerSpec>& specs,
                  const AcceleratorConfig& config) const;

  // Same evaluation from a hoisted decomposition (bit-exact with the
  // spec-based overload; see LayerWorkload). The fast path for search
  // sweeps, where one network meets thousands of candidate configs.
  HwEval evaluate(const PreparedNetwork& net,
                  const AcceleratorConfig& config) const;

  // Scalar hardware cost L_cost for the search: weighted II (+ energy) plus
  // a smooth barrier on resource overflow (infeasible points stay
  // differentiable targets rather than NaNs).
  double scalar_cost(const HwEval& eval) const;

  const FpgaBudget& budget() const { return budget_; }

 private:
  // Shared body of both evaluate() overloads, abstracted over how the i-th
  // LayerWorkload is obtained: the spec-based path decomposes each layer
  // on the fly (no per-call allocation or materialized array — this overload
  // sits inside the DAS/NAS inner loops and a per-call heap pass measurably
  // regresses bench predictor_eval), the prepared path reads its hoisted
  // vector. Identical arithmetic in identical order keeps the two entry
  // points bit-exact. Defined in predictor.cc; instantiated only there.
  template <typename LayerAt>
  HwEval evaluate_loop(std::size_t num_layers, int num_groups,
                       const AcceleratorConfig& config,
                       LayerAt&& layer_at) const;

  LayerCost layer_cost(const LayerWorkload& wl, const ChunkConfig& chunk,
                       double chunk_sram_bytes, double bytes_per_cycle) const;

  FpgaBudget budget_;
  EnergyModel energy_;
  CostWeights weights_;
};

}  // namespace a3cs::accel
