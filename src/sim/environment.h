// Simulation environment: ledger + clock + message accounting, plus the
// per-round hooks parties and watchtowers register to monitor the chain.
//
// Message delivery goes through an explicit DeliveryQueue: transmit()
// enqueues the message, advances the clock until its delivery round, and
// reports how many copies arrived (0 when the fault injector dropped it).
// Without an injector every message is delivered exactly once after one
// round — the guaranteed F_GDC behavior the engines were written against.
//
// The environment also owns the observability surface for a run: an
// obs::Tracer (disabled by default — attach a sink or set_enabled to start
// capturing) and an always-on obs::Registry of counters/histograms that
// the chaos drills and tools read instead of keeping bespoke statistics.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/ledger/ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/sim/network.h"

namespace daric::sim {

class Environment {
 public:
  /// T must exceed Δ for every channel built on this environment
  /// (Theorem 1's precondition); enforced by the channel engines.
  Environment(Round delta, const crypto::SignatureScheme& scheme)
      : ledger_(delta, scheme),
        msg_sent_(&metrics_.counter("sim.msg.sent")),
        msg_delivered_(&metrics_.counter("sim.msg.delivered")),
        msg_dropped_(&metrics_.counter("sim.msg.dropped")),
        msg_delayed_(&metrics_.counter("sim.msg.delayed")),
        msg_duplicated_(&metrics_.counter("sim.msg.duplicated")),
        rounds_(&metrics_.counter("sim.rounds")),
        msg_latency_(&metrics_.histogram("sim.msg.latency_rounds")) {
    ledger_.set_obs(&tracer_, &metrics_);
  }

  ledger::Ledger& ledger() { return ledger_; }
  const ledger::Ledger& ledger() const { return ledger_; }
  Round now() const { return ledger_.now(); }
  Round delta() const { return ledger_.delta(); }
  const crypto::SignatureScheme& scheme() const { return ledger_.scheme(); }

  /// The run's event tracer (null/disabled by default). Instrumentation
  /// that builds attribute strings must guard on tracer().enabled().
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// The run's always-on metrics registry.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

  /// Installs the chaos policy for messages (non-owning; nullptr = none).
  /// The injector's post_delay is NOT wired here — the caller decides
  /// whether to also install it as the ledger's delay policy.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Upper bound on the extra delay a message may suffer on top of the
  /// 1-round transit (the bounded-delay budget of the network model).
  void set_message_delay_budget(Round budget) { message_delay_budget_ = budget; }
  Round message_delay_budget() const { return message_delay_budget_; }

  /// Identifies a registered round hook for remove_round_hook.
  using HookId = std::uint64_t;

  /// Registers a hook executed at the end of every round (punish watchers).
  /// A hook that captures an object must be removed before that object
  /// dies; RoundHooks below does it automatically.
  HookId add_round_hook(std::function<void()> hook) {
    hooks_.push_back({next_hook_id_, std::move(hook)});
    return next_hook_id_++;
  }
  /// Unregisters a hook (unknown ids are ignored). Not callable from
  /// inside a hook.
  void remove_round_hook(HookId id) {
    std::erase_if(hooks_, [id](const Hook& h) { return h.id == id; });
  }

  /// Advances one round: ledger processing first, then monitoring hooks.
  void advance_round() {
    ledger_.advance_round();
    rounds_->inc();
    if (tracer_.enabled())
      tracer_.emit(now(), obs::EventKind::kRoundAdvance, "sim", {}, {});
    for (const Hook& hook : hooks_) hook.fn();
  }
  void advance_rounds(Round n) {
    for (Round i = 0; i < n; ++i) advance_round();
  }

  /// One delivery attempt of a protocol message. Consults the fault
  /// injector, enqueues the message, and advances the clock to its
  /// delivery round (1 + any injected delay; a drop still charges the
  /// transit round the sender spends discovering the loss).
  struct Delivery {
    int copies = 1;   // 0 = lost, 2 = duplicated
    Round delay = 0;  // extra rounds beyond the 1-round transit
  };
  Delivery transmit(PartyId from, std::string type) {
    MessageAction act;
    if (injector_) act = injector_->on_message(now(), from, type);
    Round extra = act.fate == MessageFate::kDelay
                      ? std::min(act.delay, message_delay_budget_)
                      : 0;
    if (extra < 0) extra = 0;
    const int copies = act.fate == MessageFate::kDrop    ? 0
                       : act.fate == MessageFate::kDuplicate ? 2
                                                             : 1;
    const Round sent = now();
    const Round deliver = sent + 1 + extra;
    const MessageFate fate = extra > 0 ? MessageFate::kDelay : act.fate;
    msg_sent_->inc();
    switch (fate) {
      case MessageFate::kDeliver: break;
      case MessageFate::kDrop: msg_dropped_->inc(); break;
      case MessageFate::kDelay: msg_delayed_->inc(); break;
      case MessageFate::kDuplicate: msg_duplicated_->inc(); break;
    }
    if (tracer_.enabled()) {
      tracer_.emit(sent, obs::EventKind::kMsgSend, "sim", {}, party_name(from),
                   {obs::Attr::s("type", type), obs::Attr::s("fate", message_fate_name(fate)),
                    obs::Attr::i("copies", copies), obs::Attr::i("extra_delay", extra)});
      if (fate != MessageFate::kDeliver)
        tracer_.emit(sent, obs::EventKind::kFaultInject, "sim", {}, party_name(from),
                     {obs::Attr::s("fate", message_fate_name(fate)),
                      obs::Attr::s("type", type)});
    }
    if (copies > 0) queue_.push({deliver, copies});
    int arrived = 0;
    while (now() < deliver) {
      advance_round();
      arrived += queue_.drain_due(now());
    }
    if (copies == 0) {
      if (tracer_.enabled())
        tracer_.emit(now(), obs::EventKind::kMsgDrop, "sim", {}, party_name(from),
                     {obs::Attr::s("type", type)});
      return {0, extra};
    }
    msg_delivered_->inc(static_cast<std::uint64_t>(arrived));
    msg_latency_->observe(1 + extra);
    if (tracer_.enabled())
      tracer_.emit(now(), obs::EventKind::kMsgDeliver, "sim", {}, party_name(from),
                   {obs::Attr::s("type", std::move(type)), obs::Attr::i("copies", arrived)});
    return {arrived, extra};
  }

 private:
  ledger::Ledger ledger_;
  DeliveryQueue queue_;
  FaultInjector* injector_ = nullptr;
  Round message_delay_budget_ = 3;
  struct Hook {
    HookId id;
    std::function<void()> fn;
  };
  std::vector<Hook> hooks_;
  HookId next_hook_id_ = 0;
  obs::Tracer tracer_;
  obs::Registry metrics_;
  obs::Counter* msg_sent_;
  obs::Counter* msg_delivered_;
  obs::Counter* msg_dropped_;
  obs::Counter* msg_delayed_;
  obs::Counter* msg_duplicated_;
  obs::Counter* rounds_;
  obs::Histogram* msg_latency_;
};

/// The round hooks one object registered, removed again when it is
/// destroyed, so a hook capturing `this` never outlives its object. The
/// Environment must outlive it.
class RoundHooks {
 public:
  explicit RoundHooks(Environment& env) : env_(env) {}
  ~RoundHooks() {
    for (const Environment::HookId id : ids_) env_.remove_round_hook(id);
  }
  RoundHooks(const RoundHooks&) = delete;
  RoundHooks& operator=(const RoundHooks&) = delete;

  void add(std::function<void()> hook) { ids_.push_back(env_.add_round_hook(std::move(hook))); }

 private:
  Environment& env_;
  std::vector<Environment::HookId> ids_;
};

}  // namespace daric::sim
