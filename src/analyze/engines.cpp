#include "src/analyze/engines.h"

#include "src/channel/registry.h"

namespace daric::analyze {

channel::ChannelParams params_for_model(const verify::Options& model, std::string id) {
  channel::ChannelParams p;
  p.id = std::move(id);
  p.cash_a = model.to_a(0);
  p.cash_b = model.to_b(0);
  p.t_punish = model.t_punish;
  return p;
}

std::vector<TxTemplate> engine_templates(const std::string& engine,
                                         const channel::ChannelParams& p,
                                         const verify::Options& model,
                                         KnowledgeBase* kb) {
  return channel::engine(engine).enumerate_templates(p, model, kb);
}

std::vector<TxTemplate> all_engine_templates(const channel::ChannelParams& p,
                                             const verify::Options& model) {
  std::vector<TxTemplate> out;
  for (const channel::EngineEntry& e : channel::engines()) {
    std::vector<TxTemplate> ts = e.enumerate_templates(p, model, nullptr);
    out.insert(out.end(), std::make_move_iterator(ts.begin()),
               std::make_move_iterator(ts.end()));
  }
  return out;
}

}  // namespace daric::analyze
