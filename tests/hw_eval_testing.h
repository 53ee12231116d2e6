// Strict bitwise equality on every HwEval field. EXPECT_EQ on doubles is an
// exact comparison, which is the point: the predictor's prepared and spec
// paths, and the DAS sweeps at any thread count, must agree bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "accel/predictor.h"

namespace a3cs::testing {

inline void expect_eval_identical(const accel::HwEval& a,
                                  const accel::HwEval& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.ii_cycles, b.ii_cycles);
  EXPECT_EQ(a.latency_cycles, b.latency_cycles);
  EXPECT_EQ(a.fps, b.fps);
  EXPECT_EQ(a.energy_nj, b.energy_nj);
  EXPECT_EQ(a.dsp_used, b.dsp_used);
  EXPECT_EQ(a.bram_used, b.bram_used);
  EXPECT_EQ(a.resource_overflow, b.resource_overflow);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].compute_cycles, b.layers[i].compute_cycles);
    EXPECT_EQ(a.layers[i].memory_cycles, b.layers[i].memory_cycles);
    EXPECT_EQ(a.layers[i].cycles, b.layers[i].cycles);
    EXPECT_EQ(a.layers[i].sram_bytes, b.layers[i].sram_bytes);
    EXPECT_EQ(a.layers[i].dram_bytes, b.layers[i].dram_bytes);
    EXPECT_EQ(a.layers[i].energy_nj, b.layers[i].energy_nj);
    EXPECT_EQ(a.layers[i].chunk, b.layers[i].chunk);
  }
  EXPECT_EQ(a.chunk_cycles, b.chunk_cycles);
}

}  // namespace a3cs::testing
