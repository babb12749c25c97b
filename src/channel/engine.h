// The one interface every channel engine implements (Daric and the five
// baselines), so harnesses — chaos drills, trace scenarios, benches, tests —
// drive a lifecycle without knowing which engine runs it:
//
//   create → update* → cooperative_close | force_close | publish_revoked
//          → run_until_closed → verdict
//
// The base also owns what the engines used to copy from each other: the
// environment reference, the standard metrics family, the round loop of
// run_until_closed and the one send path (send_reliable / send_or_close).
#pragma once

#include <cstdint>

#include "src/channel/params.h"
#include "src/channel/state.h"
#include "src/obs/handles.h"
#include "src/sim/environment.h"

namespace daric::channel {

/// How a channel ended, in terms every engine shares.
enum class Verdict {
  kOpen,         // not resolved on-chain yet
  kCooperative,  // both signed a close of the latest state
  kForceClosed,  // one side closed unilaterally
  kPunished,     // a revoked state was published and the cheater lost its funds
  kOverridden,   // eltoo: a stale update was overridden and the latest state settled
};

/// The verdict of an engine's own outcome enum (kNone, kCooperative,
/// kNonCollaborative, kPunished; FPPW's kCompensated is a punishment too).
template <class Outcome>
constexpr Verdict verdict_of(Outcome o) {
  if (o == Outcome::kNone) return Verdict::kOpen;
  if (o == Outcome::kCooperative) return Verdict::kCooperative;
  if (o == Outcome::kNonCollaborative) return Verdict::kForceClosed;
  return Verdict::kPunished;
}

/// Delivery attempts per protocol message before the sender concludes the
/// link (or the counterparty) is dead and falls back to force-close.
inline constexpr int kMaxSendAttempts = 3;

class Engine {
 public:
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  virtual ~Engine() = default;

  /// The registry name ("daric", "lightning", ...), also the prefix of the
  /// engine's metrics and the `engine` coordinate of its trace events.
  const char* name() const { return name_; }
  virtual const ChannelParams& params() const = 0;

  virtual bool create() = 0;
  /// False when the update aborted; the channel is then force-closed at the
  /// last state both parties fully signed.
  virtual bool update(const StateVec& next) = 0;
  /// Engines whose close handshake is symmetric ignore `initiator`.
  virtual bool cooperative_close(sim::PartyId initiator) = 0;
  /// `who` posts its newest fully-signed commitment.
  virtual void force_close(sim::PartyId who) = 0;
  /// Fraud: `who` publishes its archived state `state` (eltoo: the stale
  /// update transaction).
  virtual void publish_revoked(sim::PartyId who, std::uint32_t state) = 0;

  /// Whether the channel resolved on-chain (for Daric: at both parties).
  virtual bool closed() const = 0;
  virtual Verdict verdict() const = 0;
  /// Advances rounds until closed(); false if `max_rounds` pass first.
  bool run_until_closed(Round max_rounds);
  bool run_until_closed() { return run_until_closed(close_rounds_); }

  /// The key `who`'s balance is paid to (P2WPKH) on every exit path.
  virtual BytesView payout_pk(sim::PartyId who) const = 0;
  virtual std::uint32_t state_number() const = 0;
  /// Bytes `who` must persist for the channel (Table 1).
  virtual std::size_t party_storage_bytes(sim::PartyId who) const = 0;
  /// Downtime control: an offline party's chain monitor misses rounds.
  /// Engines with one shared monitor run it only while both are online.
  virtual void set_monitors_online(bool a, bool b) = 0;

 protected:
  /// `close_rounds` is the engine's default run_until_closed budget;
  /// `punish` names its reaction counter (see obs::EngineHandles::bind).
  Engine(sim::Environment& env, const char* name, Round close_rounds,
         const std::string& punish = "punish.posted")
      : env_(env),
        obs_(obs::EngineHandles::bind(env.metrics(), name, punish)),
        name_(name),
        close_rounds_(close_rounds) {}

  /// One protocol message from `from`. A dropped attempt is re-sent (each
  /// re-send bumps `<engine>.msg.retries` and emits a msg_retry event) up to
  /// kMaxSendAttempts times. Returns the delivered copies; 0 once the
  /// budget is spent.
  int send_reliable(sim::PartyId from, const char* type);
  /// send_reliable; on timeout `from` aborts to force-close and the channel
  /// runs until it closes. Returns the delivered copies (0 = closed).
  int send_or_close(sim::PartyId from, const char* type);

  sim::Environment& env_;
  obs::EngineHandles obs_;  // bound once, at construction

 private:
  const char* name_;
  Round close_rounds_;
};

}  // namespace daric::channel
