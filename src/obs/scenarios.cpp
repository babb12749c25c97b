#include "src/obs/scenarios.h"

#include "src/channel/registry.h"
#include "src/crypto/sig_scheme.h"
#include "src/pcn/network.h"
#include "src/sim/environment.h"

namespace daric::obs {

namespace {

using sim::PartyId;

constexpr Round kDelta = 2;
constexpr Round kTPunish = 8;

channel::ChannelParams make_params(const std::string& engine) {
  channel::ChannelParams p;
  p.id = "obs/" + engine;
  p.cash_a = 50;
  p.cash_b = 50;
  p.t_punish = kTPunish;
  return p;
}

channel::StateVec shifted(Amount to_a, Amount to_b) { return {to_a, to_b, {}}; }

ScenarioRun finish(sim::Environment& env, bool ok, std::string detail) {
  ScenarioRun r;
  r.ok = ok;
  r.detail = std::move(detail);
  r.events = env.tracer().ring_snapshot();
  r.metrics_json = env.metrics().snapshot_json();
  r.metrics_text = env.metrics().summary_text();
  return r;
}

/// The three-node PCN multi-hop payment (the PCN runs on Daric channels).
ScenarioRun run_htlc(sim::Environment& env) {
  pcn::PaymentNetwork net(env);
  net.add_node("A");
  net.add_node("B");
  net.add_node("C");
  net.open_channel("A", "B", 50, 50, kTPunish);
  net.open_channel("B", "C", 50, 50, kTPunish);
  const bool ok = net.pay("A", "C", 10);
  return finish(env, ok && net.payments_completed() == 1,
                ok ? "multi-hop payment settled" : "multi-hop payment failed");
}

ScenarioRun run_channel(sim::Environment& env, const channel::EngineEntry& engine,
                        const std::string& scenario) {
  const std::unique_ptr<channel::Engine> ch = engine.make(env, make_params(engine.name));
  if (!ch->create()) return finish(env, false, "create failed");
  if (scenario == "update") {
    if (!ch->update(shifted(45, 55)) || !ch->update(shifted(40, 60)) ||
        !ch->update(shifted(48, 52)))
      return finish(env, false, "update failed");
    const bool ok = ch->cooperative_close(PartyId::kA) &&
                    ch->verdict() == channel::Verdict::kCooperative;
    return finish(env, ok, ok ? "cooperative close" : "cooperative close failed");
  }
  if (scenario == "force-close") {
    if (!ch->update(shifted(45, 55)) || !ch->update(shifted(40, 60)))
      return finish(env, false, "update failed");
    // B publishes its revoked state 0. The victim must react: Daric posts
    // the revocation within T − Δ of the dispute (Theorem 1); eltoo, which
    // has no punishment, can only override the stale update and settle the
    // latest state.
    ch->publish_revoked(PartyId::kB, 0);
    const bool closed = ch->run_until_closed();
    const channel::Verdict v = ch->verdict();
    if (closed && v == channel::Verdict::kPunished) return finish(env, true, "cheater punished");
    if (closed && v == channel::Verdict::kOverridden)
      return finish(env, true, "stale update overridden");
    return finish(env, false, "reaction did not land");
  }
  return finish(env, false, "unknown scenario: " + scenario);
}

}  // namespace

std::vector<std::string> scenario_names() { return {"update", "force-close", "htlc"}; }

ScenarioRun run_scenario(const std::string& engine, const std::string& scenario) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  env.tracer().set_enabled(true);

  if (scenario == "htlc") {
    if (engine != "daric")
      return finish(env, false, "htlc scenario rides on the Daric PCN; use --engine daric");
    return run_htlc(env);
  }
  const channel::EngineEntry* entry = channel::find_engine(engine);
  if (!entry) return finish(env, false, "unknown engine: " + engine);
  return run_channel(env, *entry, scenario);
}

}  // namespace daric::obs
