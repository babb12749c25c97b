// The engine registry: the one place an engine name turns into an engine.
// Chaos drills, trace scenarios, the static analyzer, benches and tests all
// look engines up here, so adding an engine is one entry, not five edits.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/analyze/auth.h"
#include "src/analyze/templates.h"
#include "src/channel/engine.h"
#include "src/verify/model.h"

namespace daric::sim::faults {
class DrillHook;
}

namespace daric::channel {

struct EngineEntry {
  const char* name;
  /// Short tag in the chaos drills' channel ids ("chaos-<tag>-<seed>").
  const char* tag;
  std::unique_ptr<Engine> (*make)(sim::Environment& env, const ChannelParams& params);
  /// Every transaction template the engine can emit (see src/analyze).
  std::vector<analyze::TxTemplate> (*enumerate_templates)(const ChannelParams& p,
                                                          const verify::Options& model,
                                                          analyze::KnowledgeBase* kb);
  /// Whether `daric_chaos --protocol all` sweeps it.
  bool chaos;
  /// Drill phases only this engine has (Daric's durable stores, crash
  /// recovery and split-sweeping cheater); null for the rest.
  std::unique_ptr<sim::faults::DrillHook> (*drill_hook)();
};

/// Every engine, in the order tools list and sweep them.
const std::vector<EngineEntry>& engines();
std::vector<std::string> engine_names();
/// The names joined by '|', for usage lines.
std::string engine_choices();
/// The entry named `name`, or null.
const EngineEntry* find_engine(std::string_view name);
/// Throws std::invalid_argument for an unknown name.
const EngineEntry& engine(std::string_view name);
std::unique_ptr<Engine> make_engine(std::string_view name, sim::Environment& env,
                                    const ChannelParams& params);

}  // namespace daric::channel
