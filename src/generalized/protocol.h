// Generalized-channel baseline: single (non-duplicated) commit transaction
// per state, adaptor-signed so the publisher is identifiable on-chain.
// Requires a signature scheme with adaptor support (Schnorr here) — the
// compatibility limitation Daric avoids (paper Sec. 8).
#pragma once

#include <optional>

#include "src/channel/params.h"
#include "src/channel/state.h"
#include "src/crypto/adaptor.h"
#include "src/generalized/scripts.h"
#include "src/obs/handles.h"
#include "src/sim/environment.h"
#include "src/sim/party.h"
#include "src/tx/transaction.h"

namespace daric::generalized {

enum class GcOutcome { kNone, kCooperative, kNonCollaborative, kPunished };

class GeneralizedChannel {
 public:
  /// Throws std::invalid_argument if the environment's signature scheme has
  /// no adaptor construction (e.g. plain ECDSA).
  GeneralizedChannel(sim::Environment& env, channel::ChannelParams params);

  bool create();
  bool update(const channel::StateVec& next);
  bool cooperative_close();
  /// Unilateral close by `who`: completes the counterparty's adaptor
  /// pre-signature (revealing y on-chain) and posts commit_sn.
  void force_close(sim::PartyId who);
  /// Fraud: publish the archived commit of an old state.
  void publish_old_commit(sim::PartyId who, std::uint32_t state);

  bool run_until_closed(Round max_rounds = 400);
  GcOutcome outcome() const { return outcome_; }
  bool closed() const { return outcome_ != GcOutcome::kNone; }
  /// Downtime control for the chaos drills: while offline the channel's
  /// chain monitor skips rounds entirely.
  void set_monitor_online(bool v) { monitor_online_ = v; }
  bool monitor_online() const { return monitor_online_; }
  std::uint32_t state_number() const { return sn_; }

  std::size_t party_storage_bytes(sim::PartyId who) const;  // O(n)
  const tx::Transaction& latest_commit_body() const { return commit_body_; }
  const channel::ChannelParams& params() const { return params_; }

 private:
  struct StateSecrets {
    crypto::KeyPair y_a, y_b;  // publishing statements Y = y·G
    Bytes r_a, r_b;            // revocation preimages
  };
  StateSecrets state_secrets(std::uint32_t state) const;
  script::Script output_script(const StateSecrets& sec) const;
  tx::Transaction assemble_commit(sim::PartyId publisher, std::uint32_t state) const;
  void sign_state(std::uint32_t state, const channel::StateVec& st);
  int send_reliable(sim::PartyId from, const char* type);
  void on_round();
  /// Bumps the closed counter and emits the closed lifecycle event.
  void note_closed(GcOutcome outcome);

  sim::Environment& env_;
  channel::ChannelParams params_;
  obs::EngineHandles obs_;  // bound once in the constructor
  crypto::KeyPair main_a_, main_b_;
  // Payout keys: the `<id>/gc/X/main` wallet keys, i.e. main_*.pk.
  Bytes payout_a_, payout_b_;

  bool open_ = false;
  std::uint32_t sn_ = 0;
  channel::StateVec st_;
  tx::OutPoint fund_op_;
  script::Script fund_script_;

  // Latest state material.
  tx::Transaction commit_body_;
  script::Script out_script_;
  crypto::AdaptorPreSig pre_a_;  // A's pre-signature (statement Y_B) held by B
  crypto::AdaptorPreSig pre_b_;  // B's pre-signature (statement Y_A) held by A
  tx::Transaction split_body_;
  Bytes split_sig_a_, split_sig_b_;

  struct ArchivedState {
    tx::Transaction commit_body;
    Hash256 commit_txid;
    script::Script out_script;
    crypto::AdaptorPreSig pre_a, pre_b;
    channel::StateVec st;
    StateSecrets sec;  // derived once, when the state is signed
  };
  std::vector<ArchivedState> archive_;
  // Revealed revocation preimages (the O(n) storage term): index = state.
  std::vector<Bytes> revealed_r_a_, revealed_r_b_;

  bool monitor_online_ = true;
  GcOutcome outcome_ = GcOutcome::kNone;
  std::optional<Hash256> expected_close_txid_;
  std::optional<Hash256> pending_punish_txid_;
  struct PendingSplit {
    tx::Transaction bound;
    Hash256 txid;
    Round post_round = 0;
    bool posted = false;
  };
  std::optional<PendingSplit> pending_split_;
  sim::RoundHooks hooks_{env_};
};

}  // namespace daric::generalized
