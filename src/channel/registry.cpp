#include "src/channel/registry.h"

#include <algorithm>
#include <stdexcept>

#include "src/cerberus/protocol.h"
#include "src/cerberus/scripts.h"
#include "src/daric/protocol.h"
#include "src/daric/scripts.h"
#include "src/eltoo/protocol.h"
#include "src/eltoo/scripts.h"
#include "src/fppw/protocol.h"
#include "src/fppw/scripts.h"
#include "src/generalized/protocol.h"
#include "src/generalized/scripts.h"
#include "src/lightning/protocol.h"
#include "src/lightning/scripts.h"
#include "src/sim/faults/drill.h"

namespace daric::channel {

namespace {

template <class Channel>
std::unique_ptr<Engine> make(sim::Environment& env, const ChannelParams& params) {
  return std::make_unique<Channel>(env, params);
}

/// Cerberus's tower earns 0.5% of the capacity (at least 1 sat) per punishment.
std::unique_ptr<Engine> make_cerberus(sim::Environment& env, const ChannelParams& params) {
  return std::make_unique<cerberus::CerberusChannel>(
      env, params, std::max<Amount>(1, params.capacity() / 200));
}

}  // namespace

const std::vector<EngineEntry>& engines() {
  static const std::vector<EngineEntry> kEngines = {
      {"daric", "daric", make<daricch::DaricChannel>, daricch::enumerate_templates, true,
       sim::faults::daric_drill_hook},
      {"lightning", "ln", make<lightning::LightningChannel>, lightning::enumerate_templates,
       true, nullptr},
      {"generalized", "gc", make<generalized::GeneralizedChannel>,
       generalized::enumerate_templates, true, nullptr},
      {"eltoo", "eltoo", make<eltoo::EltooChannel>, eltoo::enumerate_templates, true, nullptr},
      // Not swept yet: a Cerberus force close leaves the counterparty's
      // balance in the CSV-locked commit output 1. FPPW passes the sweep;
      // both join it once that is fixed (ROADMAP.md).
      {"cerberus", "cb", make_cerberus, cerberus::enumerate_templates, false, nullptr},
      {"fppw", "fppw", make<fppw::FppwChannel>, fppw::enumerate_templates, false, nullptr},
  };
  return kEngines;
}

std::vector<std::string> engine_names() {
  std::vector<std::string> names;
  for (const EngineEntry& e : engines()) names.emplace_back(e.name);
  return names;
}

std::string engine_choices() {
  std::string out;
  for (const EngineEntry& e : engines()) out += (out.empty() ? "" : "|") + std::string(e.name);
  return out;
}

const EngineEntry* find_engine(std::string_view name) {
  for (const EngineEntry& e : engines())
    if (name == e.name) return &e;
  return nullptr;
}

const EngineEntry& engine(std::string_view name) {
  if (const EngineEntry* e = find_engine(name)) return *e;
  throw std::invalid_argument("unknown engine: " + std::string(name));
}

std::unique_ptr<Engine> make_engine(std::string_view name, sim::Environment& env,
                                    const ChannelParams& params) {
  return engine(name).make(env, params);
}

}  // namespace daric::channel
