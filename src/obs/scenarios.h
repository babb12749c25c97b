// Canned, deterministic scenarios that exercise one channel engine with the
// tracer enabled — the data source for tools/daric_trace and the exact-
// sequence assertions in tests/test_obs.cpp.
//
// Engines:   every registry engine (src/channel/registry.h)
// Scenarios: update      — create, three updates, cooperative close
//            force-close — create, two updates, counterparty publishes the
//                          revoked state 0, victim reacts (Daric: instant
//                          revocation per Theorem 1; eltoo: override)
//            htlc        — three-node PCN multi-hop payment (daric only)
#pragma once

#include <string>
#include <vector>

#include "src/obs/event.h"

namespace daric::obs {

struct ScenarioRun {
  bool ok = false;
  std::string detail;          // short human-readable outcome / failure reason
  std::vector<Event> events;   // the tracer ring, in emission order
  std::string metrics_json;    // Registry::snapshot_json() at scenario end
  std::string metrics_text;    // Registry::summary_text() at scenario end
};

/// Scenario names accepted by run_scenario.
std::vector<std::string> scenario_names();

/// Runs `scenario` on `engine` in a fresh Environment (Δ = 2, Schnorr,
/// T = 8) with tracing enabled. Unknown names return ok = false with the
/// reason in `detail`.
ScenarioRun run_scenario(const std::string& engine, const std::string& scenario);

}  // namespace daric::obs
