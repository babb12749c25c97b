// Lightning channel baseline: duplicated per-party commitment transactions,
// per-state revocation secrets, O(n) party/watchtower storage.
#pragma once

#include <optional>

#include "src/channel/engine.h"
#include "src/lightning/scripts.h"
#include "src/sim/party.h"
#include "src/tx/transaction.h"

namespace daric::lightning {

enum class LnOutcome { kNone, kCooperative, kNonCollaborative, kPunished };

class LightningChannel final : public channel::Engine {
 public:
  LightningChannel(sim::Environment& env, channel::ChannelParams params);

  bool create() override;
  bool update(const channel::StateVec& next) override;  // 3 message rounds
  bool cooperative_close(sim::PartyId initiator = sim::PartyId::kA) override;
  void force_close(sim::PartyId who) override;
  void publish_old_commit(sim::PartyId who, std::uint32_t state);
  void publish_revoked(sim::PartyId who, std::uint32_t state) override {
    publish_old_commit(who, state);
  }

  LnOutcome outcome() const { return outcome_; }
  bool closed() const override { return outcome_ != LnOutcome::kNone; }
  channel::Verdict verdict() const override { return channel::verdict_of(outcome_); }
  /// While offline the channel's chain monitor skips rounds entirely.
  void set_monitors_online(bool a, bool b) override { monitor_online_ = a && b; }
  std::uint32_t state_number() const override { return sn_; }
  const channel::StateVec& state() const { return st_; }

  /// O(n): stored counterparty revocation secrets dominate.
  std::size_t party_storage_bytes(sim::PartyId who) const override;
  /// Latest commitment tx of `who` (size measurements).
  const tx::Transaction& latest_commit(sim::PartyId who) const;
  /// Archived (signed) commit of `owner` at `state` plus its to_local script.
  const tx::Transaction& archived_commit(sim::PartyId owner, std::uint32_t state) const;
  const script::Script& archived_to_local(sim::PartyId owner, std::uint32_t state) const;
  /// Revocation secret of `owner`'s commit #state, as revealed to the
  /// counterparty (throws unless state < sn, i.e. actually revoked).
  crypto::Scalar revealed_secret(sim::PartyId owner, std::uint32_t state) const;
  BytesView payout_pk(sim::PartyId who) const override {
    return who == sim::PartyId::kA ? payout_a_ : payout_b_;
  }
  const channel::ChannelParams& params() const override { return params_; }

 private:
  struct CommitRecord {
    tx::Transaction tx;          // fully signed
    Hash256 txid;
    script::Script to_local;     // witness script of output 0
    crypto::KeyPair rev;         // per-commitment revocation key, derived once
    sim::PartyId owner;
    std::uint32_t state = 0;
  };

  crypto::KeyPair revocation_keypair(sim::PartyId owner, std::uint32_t state) const;
  /// `owner`'s commit for `state`, unsigned.
  CommitRecord build_commit(sim::PartyId owner, std::uint32_t state,
                            const channel::StateVec& st) const;
  /// `owner`'s archived commit for `state`. sign_state runs once per state,
  /// in order, and archives A's record then B's.
  const CommitRecord& record(sim::PartyId owner, std::uint32_t state) const {
    return archive_.at(2 * std::size_t{state} + (owner == sim::PartyId::kB ? 1 : 0));
  }
  void sign_state(std::uint32_t state, const channel::StateVec& st);
  void on_round();
  /// Bumps the closed counter and emits the closed lifecycle event.
  void note_closed(LnOutcome outcome);

  channel::ChannelParams params_;
  crypto::KeyPair main_a_, main_b_;       // funding / commit keys
  crypto::KeyPair delayed_a_, delayed_b_;
  // Payout keys: the `<id>/ln/X/main` wallet keys, i.e. main_*.pk.
  Bytes payout_a_, payout_b_;

  bool open_ = false;
  std::uint32_t sn_ = 0;
  channel::StateVec st_;
  tx::OutPoint fund_op_;
  script::Script fund_script_;

  tx::Transaction commit_a_, commit_b_;  // latest, fully signed

  // Revealed revocation secrets: secrets_for_[x] = secrets of x's *own* old
  // commits, held by the counterparty (this is the O(n) storage).
  std::vector<Bytes> secrets_of_a_, secrets_of_b_;

  // Archive of every signed commit (identification + fraud injection).
  std::vector<CommitRecord> archive_;

  bool monitor_online_ = true;
  LnOutcome outcome_ = LnOutcome::kNone;
  std::optional<Hash256> expected_close_txid_;
  std::optional<Hash256> pending_claim_txid_;
  struct PendingSweep {
    tx::OutPoint to_local_op;
    script::Script script;
    sim::PartyId owner;
    Amount cash = 0;
    Round post_round = 0;
    bool posted = false;
    Hash256 txid;
  };
  std::optional<PendingSweep> pending_sweep_;
  sim::RoundHooks hooks_{env_};
};

}  // namespace daric::lightning
