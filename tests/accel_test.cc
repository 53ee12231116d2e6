#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "accel/config_io.h"
#include "accel/dnnbuilder.h"
#include "accel/fa3c.h"
#include "accel/predictor.h"
#include "accel/space.h"
#include "das/das.h"
#include "hw_eval_testing.h"
#include "nn/zoo.h"

namespace a3cs {
namespace {

using accel::AcceleratorConfig;
using accel::AcceleratorSpace;
using accel::BufferSplit;
using accel::ChunkConfig;
using accel::Dataflow;
using accel::FpgaBudget;
using accel::HwEval;
using accel::Noc;
using accel::Predictor;
using nn::LayerSpec;

std::vector<LayerSpec> small_net() {
  std::vector<LayerSpec> specs;
  specs.push_back(LayerSpec::conv("c1", 3, 8, 3, 2, 12, 12));
  specs.push_back(LayerSpec::conv("c2", 8, 16, 3, 2, 6, 6));
  specs.push_back(LayerSpec::depthwise("d1", 16, 3, 1, 3, 3));
  specs.push_back(LayerSpec::linear("fc", 144, 256));
  nn::assign_sequential_groups(specs);
  return specs;
}

AcceleratorConfig single_chunk(ChunkConfig chunk, int groups) {
  AcceleratorConfig cfg;
  cfg.chunks.push_back(chunk);
  cfg.group_to_chunk.assign(static_cast<std::size_t>(groups), 0);
  return cfg;
}

// ------------------------------------------------------------ predictor ---

TEST(Predictor, ProducesPositiveFeasibleEvaluation) {
  Predictor pred;
  const auto specs = small_net();
  ChunkConfig chunk;
  const auto eval = pred.evaluate(specs, single_chunk(chunk, 4));
  EXPECT_TRUE(eval.feasible);
  EXPECT_GT(eval.fps, 0.0);
  EXPECT_GT(eval.ii_cycles, 0.0);
  EXPECT_EQ(eval.layers.size(), specs.size());
  EXPECT_EQ(eval.dsp_used, chunk.num_pes());
}

TEST(Predictor, MorePesNeverSlowerCompute) {
  // On a fill/drain-free NoC (multicast), growing the PE array can never
  // increase compute cycles. (Systolic arrays CAN get slower on tiny tiles
  // because fill/drain grows with rows+cols — that is intended behaviour.)
  Predictor pred;
  const auto specs = small_net();
  double prev_compute = 1e18;
  for (const int dim : {2, 4, 8, 16}) {
    ChunkConfig chunk;
    chunk.noc = Noc::kMulticast;
    chunk.pe_rows = chunk.pe_cols = dim;
    chunk.tile_oc = chunk.tile_ic = 32;
    const auto eval = pred.evaluate(specs, single_chunk(chunk, 4));
    double compute = 0.0;
    for (const auto& l : eval.layers) compute += l.compute_cycles;
    EXPECT_LE(compute, prev_compute + 1e-6) << "dim " << dim;
    prev_compute = compute;
  }
}

TEST(Predictor, LatencyIsSumIiIsMax) {
  Predictor pred;
  const auto specs = small_net();
  AcceleratorConfig cfg;
  cfg.chunks.push_back(ChunkConfig{});
  cfg.chunks.push_back(ChunkConfig{});
  cfg.group_to_chunk = {0, 0, 1, 1};
  const auto eval = pred.evaluate(specs, cfg);
  ASSERT_EQ(eval.chunk_cycles.size(), 2u);
  EXPECT_NEAR(eval.latency_cycles,
              eval.chunk_cycles[0] + eval.chunk_cycles[1], 1e-6);
  EXPECT_NEAR(eval.ii_cycles,
              std::max(eval.chunk_cycles[0], eval.chunk_cycles[1]), 1e-6);
  EXPECT_GE(eval.latency_cycles, eval.ii_cycles);
}

TEST(Predictor, DspBudgetViolationFlagged) {
  Predictor pred;
  const auto specs = small_net();
  AcceleratorConfig cfg;
  for (int i = 0; i < 4; ++i) {
    ChunkConfig chunk;
    chunk.pe_rows = chunk.pe_cols = 32;  // 4 x 1024 PEs >> 900 DSP
    cfg.chunks.push_back(chunk);
  }
  cfg.group_to_chunk = {0, 1, 2, 3};
  const auto eval = pred.evaluate(specs, cfg);
  EXPECT_FALSE(eval.feasible);
  EXPECT_GT(eval.resource_overflow, 0.0);
  EXPECT_EQ(eval.fps, 0.0);
  EXPECT_GT(pred.scalar_cost(eval), 10.0 * 0.9);  // barrier dominates
}

TEST(Predictor, GroupCyclesPartitionTotal) {
  Predictor pred;
  const auto specs = small_net();
  const auto eval = pred.evaluate(specs, single_chunk(ChunkConfig{}, 4));
  double sum = 0.0;
  for (int g = 0; g < 4; ++g) sum += eval.group_cycles(specs, g);
  EXPECT_NEAR(sum, eval.latency_cycles, 1e-6);
}

TEST(Predictor, HeavierLayersCostMoreCycles) {
  Predictor pred;
  std::vector<LayerSpec> specs;
  specs.push_back(LayerSpec::conv("small", 4, 4, 3, 1, 6, 6));
  specs.push_back(LayerSpec::conv("big", 16, 32, 5, 1, 12, 12));
  nn::assign_sequential_groups(specs);
  const auto eval = pred.evaluate(specs, single_chunk(ChunkConfig{}, 2));
  EXPECT_GT(eval.layers[1].cycles, eval.layers[0].cycles);
}

TEST(Predictor, SystolicPaysFillDrain) {
  Predictor pred;
  const auto specs = small_net();
  ChunkConfig sys;
  sys.noc = Noc::kSystolic;
  ChunkConfig multi = sys;
  multi.noc = Noc::kMulticast;
  const auto es = pred.evaluate(specs, single_chunk(sys, 4));
  const auto em = pred.evaluate(specs, single_chunk(multi, 4));
  double cs = 0.0, cm = 0.0;
  for (const auto& l : es.layers) cs += l.compute_cycles;
  for (const auto& l : em.layers) cm += l.compute_cycles;
  // Multicast has no fill/drain but 3% clock inefficiency; for these small
  // tiles the fill/drain dominates.
  EXPECT_NE(cs, cm);
}

TEST(Predictor, DepthwiseLayerPrefersNonWeightStationary) {
  // A depthwise layer has no input-channel parallelism, so an
  // output-stationary mapping (spatial parallelism) must beat a
  // weight-stationary one on compute cycles.
  Predictor pred;
  std::vector<LayerSpec> specs = {LayerSpec::depthwise("d", 32, 3, 1, 12, 12)};
  nn::assign_sequential_groups(specs);
  ChunkConfig ws;
  ws.dataflow = Dataflow::kWeightStationary;
  ws.noc = Noc::kMulticast;
  ChunkConfig os = ws;
  os.dataflow = Dataflow::kOutputStationary;
  const auto ews = pred.evaluate(specs, single_chunk(ws, 1));
  const auto eos = pred.evaluate(specs, single_chunk(os, 1));
  EXPECT_LT(eos.layers[0].compute_cycles, ews.layers[0].compute_cycles);
}

TEST(Predictor, SmallBuffersCauseRefetchTraffic) {
  Predictor pred;
  // One large conv; compare generous vs starved buffer splits by shrinking
  // the SRAM share via a tiny chunk in a 2-chunk config (SRAM is allocated
  // proportionally to PEs).
  std::vector<LayerSpec> specs = {LayerSpec::conv("c", 64, 64, 3, 1, 12, 12)};
  nn::assign_sequential_groups(specs);

  AcceleratorConfig big;
  ChunkConfig chunk;
  chunk.tile_oc = 8;
  chunk.tile_ic = 8;
  big.chunks.push_back(chunk);
  big.group_to_chunk = {0};
  const auto ebig = pred.evaluate(specs, big);

  AcceleratorConfig starved;
  ChunkConfig tiny = chunk;
  tiny.pe_rows = tiny.pe_cols = 2;  // tiny PE share -> tiny SRAM share
  ChunkConfig fat;
  fat.pe_rows = fat.pe_cols = 24;
  starved.chunks.push_back(tiny);
  starved.chunks.push_back(fat);  // unused by the single layer
  starved.group_to_chunk = {0};
  const auto estarved = pred.evaluate(specs, starved);

  EXPECT_GT(estarved.layers[0].memory_cycles, ebig.layers[0].memory_cycles);
}

TEST(Predictor, ScalarCostMonotoneInIi) {
  Predictor pred;
  HwEval a, b;
  a.feasible = b.feasible = true;
  a.ii_cycles = 1000;
  b.ii_cycles = 2000;
  EXPECT_LT(pred.scalar_cost(a), pred.scalar_cost(b));
}

TEST(Predictor, ReportIsInformative) {
  Predictor pred;
  const auto specs = small_net();
  const auto eval = pred.evaluate(specs, single_chunk(ChunkConfig{}, 4));
  const std::string r = eval.report();
  EXPECT_NE(r.find("FEASIBLE"), std::string::npos);
  EXPECT_NE(r.find("FPS"), std::string::npos);
  EXPECT_NE(r.find("chunk0"), std::string::npos);
}

TEST(Predictor, ConfigToStringIsInformative) {
  const auto specs = small_net();
  const auto cfg = single_chunk(ChunkConfig{}, 4);
  const std::string s = cfg.to_string();
  EXPECT_NE(s.find("chunk0"), std::string::npos);
  EXPECT_NE(s.find("alloc="), std::string::npos);
}

// The prepared path hoists the per-layer decomposition out of the DAS
// sweeps; it must reproduce the spec path bit for bit on every config.
TEST(Predictor, PreparedPathMatchesSpecPathBitExact) {
  const auto specs =
      nn::zoo_model_specs("ResNet-14", nn::ObsSpec{3, 12, 12}, 4);
  const Predictor pred;
  const accel::PreparedNetwork net = accel::prepare_network(specs);
  for (int chunks : {1, 3}) {
    AcceleratorSpace space(chunks, nn::num_groups(specs));
    util::Rng rng(static_cast<std::uint64_t>(chunks) * 31 + 21);
    for (int i = 0; i < 48; ++i) {
      const AcceleratorConfig cfg = space.decode(space.random_choices(rng));
      const HwEval spec_eval = pred.evaluate(specs, cfg);
      const HwEval prepared_eval = pred.evaluate(net, cfg);
      testing::expect_eval_identical(prepared_eval, spec_eval);
      EXPECT_EQ(pred.scalar_cost(prepared_eval), pred.scalar_cost(spec_eval));
    }
  }
}

// ------------------------------------------------------------- config_io --

// decode(encode(cfg)) must reproduce the exact bytes of every field:
// checkpoints, result files and the fleet frontier carry the encoded text.
TEST(ConfigIo, RoundTripIsByteIdentical) {
  for (int chunks : {1, 2, 4}) {
    util::Rng rng(static_cast<std::uint64_t>(chunks) * 1237 + 5);
    AcceleratorSpace space(chunks, 6);
    for (int i = 0; i < 32; ++i) {
      const AcceleratorConfig cfg = space.decode(space.random_choices(rng));
      const std::string text = accel::encode_config(cfg);
      const AcceleratorConfig back = accel::decode_config(text);
      ASSERT_EQ(back.group_to_chunk, cfg.group_to_chunk);
      for (int c = 0; c < cfg.num_chunks(); ++c) {
        const auto& a = cfg.chunks[static_cast<std::size_t>(c)];
        const auto& b = back.chunks[static_cast<std::size_t>(c)];
        EXPECT_EQ(a.split.input, b.split.input);  // exact, not NEAR
        EXPECT_EQ(a.split.weight, b.split.weight);
        EXPECT_EQ(a.split.output, b.split.output);
      }
      // Fixed point: re-encoding the decoded config reproduces the text.
      EXPECT_EQ(accel::encode_config(back), text);
    }
  }
}

// Regression for the %.6g era: splits like 1/3 are not representable in 6
// significant digits, so the default-constructed chunk used to come back
// ~1e-7 off after one round trip.
TEST(ConfigIo, OneThirdSplitSurvivesRoundTrip) {
  AcceleratorConfig cfg;
  cfg.chunks.push_back(ChunkConfig{});  // BufferSplit defaults to 1/3
  cfg.group_to_chunk = {0, 0};
  const AcceleratorConfig back =
      accel::decode_config(accel::encode_config(cfg));
  EXPECT_EQ(back.chunks[0].split.input, 1.0 / 3);
  EXPECT_EQ(back.chunks[0].split.weight, 1.0 / 3);
  EXPECT_EQ(back.chunks[0].split.output, 1.0 / 3);
}

// ----------------------------------------------------------------- space --

TEST(Space, KnobLayout) {
  AcceleratorSpace space(4, 14);
  // 7 knobs per chunk + one allocation knob per group.
  EXPECT_EQ(space.num_knobs(), 4 * 7 + 14);
  EXPECT_EQ(space.num_chunks(), 4);
  EXPECT_EQ(space.num_groups(), 14);
}

TEST(Space, PaperScaleExceedsTenToTwentySeven) {
  // The paper claims > 10^27 accelerator configurations; our space at the
  // co-search scale (4 chunks, 14 layer groups) must exceed that.
  AcceleratorSpace space(4, 14);
  EXPECT_GT(space.log10_size(), 27.0);
}

TEST(Space, DecodeRoundTripsKnobValues) {
  AcceleratorSpace space(2, 3);
  std::vector<int> choices(static_cast<std::size_t>(space.num_knobs()), 0);
  choices[0] = 3;  // chunk0 pe_rows -> pe_dim_choices[3] == 8
  choices[7 + 2] = 1;  // chunk1 noc -> broadcast
  choices[14] = 1;     // group0 -> chunk 1
  const auto cfg = space.decode(choices);
  EXPECT_EQ(cfg.chunks[0].pe_rows, AcceleratorSpace::pe_dim_choices()[3]);
  EXPECT_EQ(cfg.chunks[1].noc, Noc::kBroadcast);
  EXPECT_EQ(cfg.group_to_chunk[0], 1);
  EXPECT_EQ(cfg.group_to_chunk[1], 0);
}

TEST(Space, DecodeRejectsWrongArity) {
  AcceleratorSpace space(2, 3);
  EXPECT_THROW(space.decode({0, 1, 2}), std::runtime_error);
}

TEST(Space, RandomChoicesInRange) {
  AcceleratorSpace space(3, 5);
  util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto choices = space.random_choices(rng);
    ASSERT_EQ(static_cast<int>(choices.size()), space.num_knobs());
    for (int k = 0; k < space.num_knobs(); ++k) {
      EXPECT_GE(choices[static_cast<std::size_t>(k)], 0);
      EXPECT_LT(choices[static_cast<std::size_t>(k)],
                space.knobs()[static_cast<std::size_t>(k)].num_choices);
    }
    // And decodable + evaluable.
    const auto cfg = space.decode(choices);
    EXPECT_EQ(cfg.num_chunks(), 3);
  }
}

TEST(Space, SplitPresetsSumToOne) {
  for (const auto& split : AcceleratorSpace::split_choices()) {
    EXPECT_NEAR(split.input + split.weight + split.output, 1.0, 1e-6);
  }
}

// ------------------------------------------------------------ DNNBuilder --

TEST(DnnBuilder, OneStagePerLayerWithinBudget) {
  Predictor pred;
  const auto specs = small_net();
  const auto cfg = accel::dnnbuilder_config(specs, pred.budget());
  EXPECT_EQ(cfg.num_chunks(), 4);  // one per group (under max_stages)
  const auto eval = pred.evaluate(specs, cfg);
  EXPECT_TRUE(eval.feasible);
  EXPECT_LE(eval.dsp_used, pred.budget().dsp);
  EXPECT_GT(eval.fps, 0.0);
}

TEST(DnnBuilder, AllocatesMorePesToHeavierStages) {
  Predictor pred;
  std::vector<LayerSpec> specs;
  specs.push_back(LayerSpec::conv("light", 2, 2, 1, 1, 4, 4));
  specs.push_back(LayerSpec::conv("heavy", 32, 64, 5, 1, 12, 12));
  nn::assign_sequential_groups(specs);
  const auto cfg = accel::dnnbuilder_config(specs, pred.budget());
  ASSERT_EQ(cfg.num_chunks(), 2);
  EXPECT_GT(cfg.chunks[1].num_pes(), cfg.chunks[0].num_pes());
}

TEST(DnnBuilder, FoldsDeepNetworksToMaxStages) {
  Predictor pred;
  const auto specs =
      nn::zoo_model_specs("ResNet-74", nn::ObsSpec{3, 12, 12}, 4);
  accel::DnnBuilderOptions opts;
  opts.max_stages = 8;
  const auto cfg = accel::dnnbuilder_config(specs, pred.budget(), opts);
  EXPECT_EQ(cfg.num_chunks(), 8);
  // Every group must still be mapped to a valid stage.
  for (int c : cfg.group_to_chunk) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 8);
  }
  EXPECT_TRUE(pred.evaluate(specs, cfg).feasible);
}

// ----------------------------------------------------------------- FA3C ---

TEST(Fa3c, SingleEngineConfigEvaluates) {
  Predictor pred;
  const auto specs = nn::zoo_model_specs("Vanilla", nn::ObsSpec{3, 12, 12}, 4);
  const auto eval = accel::fa3c_eval(specs, pred);
  EXPECT_TRUE(eval.feasible);
  EXPECT_GT(eval.fps, 0.0);
  const auto cfg = accel::fa3c_config(specs);
  EXPECT_EQ(cfg.num_chunks(), 1);
  EXPECT_EQ(cfg.chunks[0].num_pes(), 256);
}

TEST(Fa3c, SearchedAcceleratorBeatsFixedEngine) {
  // The paper's Table III premise: a searched, network-matched accelerator
  // outperforms the one-size-fits-all FA3C engine (by 2.1x-6.1x there).
  Predictor pred;
  const auto specs =
      nn::zoo_model_specs("ResNet-14", nn::ObsSpec{3, 12, 12}, 4);
  const auto fa3c = accel::fa3c_eval(specs, pred);
  accel::AcceleratorSpace space(4, nn::num_groups(specs));
  das::DasConfig cfg;
  cfg.iterations = 600;
  das::DasEngine engine(space, pred, cfg);
  const auto searched = engine.search(specs);
  EXPECT_GT(searched.eval.fps, fa3c.fps);
}

}  // namespace
}  // namespace a3cs
