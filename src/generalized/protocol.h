// Generalized-channel baseline: single (non-duplicated) commit transaction
// per state, adaptor-signed so the publisher is identifiable on-chain.
// Requires a signature scheme with adaptor support (Schnorr here) — the
// compatibility limitation Daric avoids (paper Sec. 8).
#pragma once

#include <optional>

#include "src/channel/engine.h"
#include "src/crypto/adaptor.h"
#include "src/generalized/scripts.h"
#include "src/sim/party.h"
#include "src/tx/transaction.h"

namespace daric::generalized {

enum class GcOutcome { kNone, kCooperative, kNonCollaborative, kPunished };

class GeneralizedChannel final : public channel::Engine {
 public:
  /// Throws std::invalid_argument if the environment's signature scheme has
  /// no adaptor construction (e.g. plain ECDSA).
  GeneralizedChannel(sim::Environment& env, channel::ChannelParams params);

  bool create() override;
  bool update(const channel::StateVec& next) override;
  bool cooperative_close(sim::PartyId initiator = sim::PartyId::kA) override;
  /// Unilateral close by `who`: completes the counterparty's adaptor
  /// pre-signature (revealing y on-chain) and posts commit_sn.
  void force_close(sim::PartyId who) override;
  /// Fraud: publish the archived commit of an old state.
  void publish_old_commit(sim::PartyId who, std::uint32_t state);
  void publish_revoked(sim::PartyId who, std::uint32_t state) override {
    publish_old_commit(who, state);
  }

  GcOutcome outcome() const { return outcome_; }
  bool closed() const override { return outcome_ != GcOutcome::kNone; }
  channel::Verdict verdict() const override { return channel::verdict_of(outcome_); }
  /// While offline the channel's chain monitor skips rounds entirely.
  void set_monitors_online(bool a, bool b) override { monitor_online_ = a && b; }
  std::uint32_t state_number() const override { return sn_; }
  BytesView payout_pk(sim::PartyId who) const override {
    return who == sim::PartyId::kA ? payout_a_ : payout_b_;
  }

  std::size_t party_storage_bytes(sim::PartyId who) const override;  // O(n)
  const tx::Transaction& latest_commit_body() const { return commit_body_; }
  const channel::ChannelParams& params() const override { return params_; }

 private:
  struct StateSecrets {
    crypto::KeyPair y_a, y_b;  // publishing statements Y = y·G
    Bytes r_a, r_b;            // revocation preimages
  };
  StateSecrets state_secrets(std::uint32_t state) const;
  script::Script output_script(const StateSecrets& sec) const;
  tx::Transaction assemble_commit(sim::PartyId publisher, std::uint32_t state) const;
  void sign_state(std::uint32_t state, const channel::StateVec& st);
  void on_round();
  /// Bumps the closed counter and emits the closed lifecycle event.
  void note_closed(GcOutcome outcome);

  channel::ChannelParams params_;
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
