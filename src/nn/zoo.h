// The model zoo: the five baseline backbones the paper evaluates (the DQN
// "Vanilla" net and ResNet-14/20/38/74 proxies), built for MiniArcade-scale
// observations. Every builder returns both the runnable Module and the
// LayerSpec list the accelerator predictor consumes.
//
// Scaling note (see DESIGN.md): the paper's nets run on 84x84x4 Atari frames;
// ours run on small multi-plane MiniArcade frames with proportionally smaller
// channel widths, keeping the FLOPs ladder Vanilla < ResNet-14 < -20 <
// -38 < -74 and the structural choices the paper calls out (first conv
// stride 2, final FC-256 feature layer).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/actor_critic.h"
#include "nn/layer_spec.h"
#include "nn/module.h"
#include "nn/obs_spec.h"

namespace a3cs::nn {

struct BackboneBuild {
  std::unique_ptr<Module> module;
  std::vector<LayerSpec> specs;
  int feature_dim = 0;
};

// DQN-style small net: two strided convs + FC-256.
BackboneBuild build_vanilla(const ObsSpec& obs, util::Rng& rng);

// ResNet proxy with `blocks_per_stage` residual blocks in each of 3 stages
// (widths w, 2w, 4w), stem stride 2, final FC-256.
BackboneBuild build_resnet(const ObsSpec& obs, int blocks_per_stage,
                           int base_width, util::Rng& rng);

// The names the paper's tables use.
const std::vector<std::string>& zoo_model_names();

// Builds a full actor-critic agent for a named zoo model
// ("Vanilla", "ResNet-14", "ResNet-20", "ResNet-38", "ResNet-74").
struct AgentBuild {
  std::unique_ptr<ActorCriticNet> net;
  std::vector<LayerSpec> specs;
};
AgentBuild build_zoo_agent(const std::string& model_name, const ObsSpec& obs,
                           int num_actions, util::Rng& rng);

// LayerSpecs only (no weights), for hardware-side experiments that never run
// the network.
std::vector<LayerSpec> zoo_model_specs(const std::string& model_name,
                                       const ObsSpec& obs, int num_actions);

}  // namespace a3cs::nn
