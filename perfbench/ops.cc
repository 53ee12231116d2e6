// Per-operator replays in the style of ggml test-backend-ops' perf mode:
// each non-skip supernet candidate, built alone with nas::make_candidate, at
// every cell geometry of the bench search space, timed forward and backward
// at the co-search batch (80) and forward at the agent batch (1). The
// medians are summed over the cells.
#include <string>
#include <vector>

#include "arcade/games.h"
#include "common.h"
#include "nas/arch.h"
#include "nas/ops.h"
#include "util/rng.h"

namespace perfbench {

namespace a = a3cs;

namespace {

a::nn::Tensor random_tensor(const a::tensor::Shape& shape, a::util::Rng& rng) {
  a::nn::Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

}  // namespace

void report_op_replays(const Options& opt, Report& report) {
  auto probe = a::arcade::make_game(kGame, 1);
  const a::nn::ObsSpec obs = probe->obs_spec();
  const a::nas::SpaceGeometry geometry =
      a::nas::space_geometry(obs, bench_space());
  a::util::Rng rng(mix(opt.seed, 10));
  const int reps_n80 = opt.smoke ? 1 : 9;
  const int reps_n1 = opt.smoke ? 1 : 51;

  const auto& ops = a::nas::candidate_ops();
  for (int op = 0; op < static_cast<int>(ops.size()); ++op) {
    if (ops[static_cast<std::size_t>(op)].is_skip) continue;
    double fwd80 = 0.0, bwd80 = 0.0, fwd1 = 0.0;
    for (std::size_t c = 0; c < geometry.cells.size(); ++c) {
      const a::nas::CellGeometry& cg = geometry.cells[c];
      auto module = a::nas::make_candidate(op, "replay" + std::to_string(c),
                                           cg.in_c, cg.out_c, cg.stride, rng);
      const a::nn::Tensor x80 = random_tensor(
          a::tensor::Shape::nchw(80, cg.in_c, cg.in_h, cg.in_w), rng);
      const a::nn::Tensor x1 = random_tensor(
          a::tensor::Shape::nchw(1, cg.in_c, cg.in_h, cg.in_w), rng);
      const a::nn::Tensor grad =
          random_tensor(module->forward(x80).shape(), rng);
      std::vector<double> f80, b80, f1;
      for (int r = 0; r < reps_n80; ++r) {
        double t0 = now_s();
        module->forward(x80);
        f80.push_back((now_s() - t0) * 1e3);
        t0 = now_s();
        module->backward(grad);
        b80.push_back((now_s() - t0) * 1e3);
      }
      for (int r = 0; r < reps_n1; ++r) {
        const double t0 = now_s();
        module->forward(x1);
        f1.push_back((now_s() - t0) * 1e3);
      }
      fwd80 += quantile(f80, 0.5);
      bwd80 += quantile(b80, 0.5);
      fwd1 += quantile(f1, 0.5);
    }
    const std::string p = "nas.op." + ops[static_cast<std::size_t>(op)].id;
    report.metric(p + ".fwd_ms_n80", fwd80);
    report.metric(p + ".bwd_ms_n80", bwd80);
    report.metric(p + ".fwd_us_n1", fwd1 * 1e3);
  }
}

}  // namespace perfbench
