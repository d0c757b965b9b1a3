#include "serve/spec.hpp"

#include "attack/scripted_attacker.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "defense/simplex_agent.hpp"
#include "sim/scenario.hpp"

namespace adsec::serve {

namespace {

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += " ";
    out += n;
  }
  return out;
}

// "prefix:<param>" -> param; throws Error{Config} unless the parameter is
// a finite number written with digits, '.', 'e'/'E' and signs only: no
// padding, no inf/nan, no hex floats. Other decimal spellings of one value
// (0.2, 0.20, .2) still parse, and each gets its own cell key.
bool split_param(const std::string& spec, const std::string& prefix, double& param) {
  if (spec.rfind(prefix + ":", 0) != 0) return false;
  const std::string tail = spec.substr(prefix.size() + 1);
  if (tail.find_first_not_of("0123456789.eE+-") != std::string::npos ||
      !parse_double(tail, param)) {
    throw Error(ErrorCode::Config,
                "invalid numeric parameter in agent spec '" + spec + "'");
  }
  return true;
}

enum class AgentKind { Modular, E2e, Finetune, Pnn, PnnDetector };

struct AgentSpec {
  AgentKind kind;
  double param{0.0};
};

AgentSpec parse_agent(const std::string& spec) {
  AgentSpec out{AgentKind::Modular, 0.0};
  if (spec == "modular") {
    out.kind = AgentKind::Modular;
  } else if (spec == "e2e") {
    out.kind = AgentKind::E2e;
  } else if (split_param(spec, "finetune", out.param)) {
    out.kind = AgentKind::Finetune;
    if (out.param <= 0.0 || out.param >= 1.0) {
      throw Error(ErrorCode::Config,
                  "finetune rho must be in (0, 1), got '" + spec + "'");
    }
  } else if (split_param(spec, "pnn-detector", out.param)) {
    out.kind = AgentKind::PnnDetector;
  } else if (split_param(spec, "pnn", out.param)) {
    out.kind = AgentKind::Pnn;
  } else {
    throw Error(ErrorCode::Config, "unknown agent '" + spec + "' (expected: " +
                                       join(agent_spec_names()) + ")");
  }
  return out;
}

enum class AttackerKind { None, Oracle, Noise, Full, Camera, Imu, Td3 };

AttackerKind parse_attacker(const std::string& spec) {
  if (spec == "none") return AttackerKind::None;
  if (spec == "oracle") return AttackerKind::Oracle;
  if (spec == "noise") return AttackerKind::Noise;
  if (spec == "full") return AttackerKind::Full;
  if (spec == "camera") return AttackerKind::Camera;
  if (spec == "imu") return AttackerKind::Imu;
  if (spec == "td3") return AttackerKind::Td3;
  throw Error(ErrorCode::Config, "unknown attacker '" + spec + "' (expected: " +
                                     join(attacker_spec_names()) + ")");
}

void validate_scenario(const std::string& name) {
  for (const auto& preset : scenario_preset_names()) {
    if (preset == name) return;
  }
  throw Error(ErrorCode::Config, "unknown scenario '" + name + "' (expected: " +
                                     join(scenario_preset_names()) + ")");
}

}  // namespace

const std::vector<std::string>& agent_spec_names() {
  static const std::vector<std::string> names = {
      "modular", "e2e", "finetune:<rho>", "pnn:<sigma>", "pnn-detector:<sigma>"};
  return names;
}

const std::vector<std::string>& attacker_spec_names() {
  static const std::vector<std::string> names = {"none", "oracle", "noise", "full",
                                                 "camera", "imu", "td3"};
  return names;
}

void validate_request(const EvalRequest& req) {
  (void)parse_agent(req.agent);
  (void)parse_attacker(req.attacker);
  validate_scenario(req.scenario);
}

ResolvedSpec resolve_spec(PolicyZoo& zoo, const EvalRequest& req) {
  const AgentSpec agent = parse_agent(req.agent);
  const AttackerKind attacker = parse_attacker(req.attacker);
  validate_scenario(req.scenario);

  ResolvedSpec out;
  out.config = zoo.experiment();
  out.config.scenario = scenario_preset(req.scenario);

  switch (agent.kind) {
    case AgentKind::Modular:
      out.agent = [&zoo] { return zoo.make_modular_agent(); };
      break;
    case AgentKind::E2e:
      out.agent = [&zoo] { return zoo.make_e2e_agent(); };
      break;
    case AgentKind::Finetune:
      out.agent = [&zoo, param = agent.param] {
        return zoo.make_finetuned_agent(param);
      };
      break;
    case AgentKind::Pnn: {
      // The PNN switcher gates on an estimate of the incoming attack budget;
      // a nominal request means no attack is expected.
      const double estimate = attacker == AttackerKind::None ? 0.0 : req.budget;
      out.agent = [&zoo, param = agent.param, estimate] {
        auto pnn = zoo.make_pnn_agent(param);
        pnn->set_attack_budget_estimate(estimate);
        return pnn;
      };
      break;
    }
    case AgentKind::PnnDetector:
      out.agent = [&zoo, param = agent.param] {
        return std::make_unique<DetectorSwitchedAgent>(
            zoo.driving_policy(), zoo.pnn_column(), param, DetectorConfig{},
            zoo.camera(), zoo.frame_stack());
      };
      break;
  }

  const double budget = req.budget;
  const AdvRewardConfig adv_reward = out.config.adv_reward;
  switch (attacker) {
    case AttackerKind::None:
      break;  // empty factory => nominal driving
    case AttackerKind::Oracle:
      out.attacker = [budget, adv_reward] {
        return std::make_unique<ScriptedAttacker>(budget, adv_reward);
      };
      break;
    case AttackerKind::Noise:
      out.attacker = [budget] { return std::make_unique<NoiseAttacker>(budget); };
      break;
    case AttackerKind::Full:
      out.attacker = [budget, adv_reward] {
        return std::make_unique<FullActuationOracle>(budget, 1.0, adv_reward);
      };
      break;
    case AttackerKind::Camera:
      out.attacker = [&zoo, budget, vs_modular = agent.kind == AgentKind::Modular] {
        return zoo.make_camera_attacker(budget, vs_modular);
      };
      break;
    case AttackerKind::Imu:
      out.attacker = [&zoo, budget] { return zoo.make_imu_attacker(budget); };
      break;
    case AttackerKind::Td3:
      out.attacker = [&zoo, budget] { return zoo.make_td3_attacker(budget); };
      break;
  }
  return out;
}

}  // namespace adsec::serve
