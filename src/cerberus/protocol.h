// Cerberus channel baseline (Avarikioti et al., FC 2020): Lightning-style
// duplicated commitments whose punishment is delegated to an *incentivized*
// watchtower — the parties pre-sign, per state, a complete revocation
// transaction that claims both commit outputs and pays the tower a reward.
// Party and tower storage are O(n) (Table 1); the commit transaction's
// 2-output layout reproduces Appendix H.6's 772-WU non-collaborative close.
#pragma once

#include <array>
#include <optional>

#include "src/channel/engine.h"
#include "src/crypto/keys.h"
#include "src/sim/party.h"
#include "src/tx/transaction.h"

namespace daric::cerberus {

enum class CbOutcome { kNone, kCooperative, kNonCollaborative, kPunished };

/// Commit-output script (H.6, 115 bytes):
///   IF 2 <rev1> <rev2> 2 CHECKMULTISIG ELSE <T> CSV DROP <delayed> CHECKSIG ENDIF
script::Script cerberus_output_script(BytesView rev1, BytesView rev2, std::uint32_t csv,
                                      BytesView delayed_pk);

class CerberusChannel;

/// The incentivized tower: it holds one fully-signed revocation transaction
/// per revoked state and collects `reward` when it fires one.
class CerberusWatchtower {
 public:
  explicit CerberusWatchtower(tx::OutPoint fund_op) : fund_op_(fund_op) {}

  struct RevocationPackage {
    Hash256 revoked_commit_txid;
    tx::Transaction revocation;  // fully signed, ready to post
  };
  void add_package(RevocationPackage pkg) { packages_.push_back(std::move(pkg)); }

  /// Called at the end of every round: posts the revocation for a revoked
  /// commit it holds a package for.
  void on_round(ledger::Ledger& l);
  /// Bytes this tower must persist for the channel it watches.
  std::size_t storage_bytes() const;
  bool reacted() const { return reacted_; }
  /// Whether the funding output was spent: the tower has reacted, or the
  /// spender is a transaction it holds no package for, and it stops watching.
  bool retired() const { return retired_; }

 private:
  tx::OutPoint fund_op_;
  std::vector<RevocationPackage> packages_;
  bool reacted_ = false;
  bool retired_ = false;
};

class CerberusChannel final : public channel::Engine {
 public:
  /// `tower_reward` is carved out of the cheater's punished funds.
  CerberusChannel(sim::Environment& env, channel::ChannelParams params, Amount tower_reward);

  bool create() override;
  bool update(const channel::StateVec& next) override;
  bool cooperative_close(sim::PartyId initiator = sim::PartyId::kA) override;
  void force_close(sim::PartyId who) override;
  void publish_old_commit(sim::PartyId who, std::uint32_t state);
  void publish_revoked(sim::PartyId who, std::uint32_t state) override {
    publish_old_commit(who, state);
  }

  CbOutcome outcome() const { return outcome_; }
  bool closed() const override { return outcome_ != CbOutcome::kNone; }
  channel::Verdict verdict() const override { return channel::verdict_of(outcome_); }
  /// While offline the parties' own chain monitor skips rounds; the
  /// incentivized towers keep watching.
  void set_monitors_online(bool a, bool b) override { monitor_online_ = a && b; }
  std::uint32_t state_number() const override { return sn_; }
  BytesView payout_pk(sim::PartyId who) const override {
    return who == sim::PartyId::kA ? payout_a_ : payout_b_;
  }

  std::size_t party_storage_bytes(sim::PartyId who) const override;  // O(n)
  CerberusWatchtower& tower(sim::PartyId who) {
    return who == sim::PartyId::kA ? tower_a_ : tower_b_;
  }
  const tx::Transaction& latest_commit(sim::PartyId who) const {
    return record(who, sn_).tx;
  }
  tx::OutPoint funding_outpoint() const { return fund_op_; }
  Bytes tower_reward_pk() const { return tower_key_.pk.compressed(); }
  Amount tower_reward() const { return tower_reward_; }
  const channel::ChannelParams& params() const override { return params_; }

 private:
  struct CommitRecord {
    tx::Transaction tx;  // fully signed
    Hash256 txid;
    script::Script out0_script, out1_script;
    /// Revocation keys, derived once when the state is signed: legs 0/1
    /// lock out0's 2-of-2, legs 2/3 lock out1's.
    std::array<crypto::KeyPair, 4> rev;
    sim::PartyId owner;
    std::uint32_t state = 0;
  };

  crypto::KeyPair rev_keypair(sim::PartyId owner, std::uint32_t state, int leg) const;
  /// `owner`'s commit for `state`, unsigned.
  CommitRecord build_commit(sim::PartyId owner, std::uint32_t state,
                            const channel::StateVec& st) const;
  tx::Transaction build_revocation(const CommitRecord& rec, sim::PartyId victim) const;
  /// `owner`'s archived commit for `state`. sign_state runs once per state,
  /// in order, and archives A's record then B's.
  const CommitRecord& record(sim::PartyId owner, std::uint32_t state) const {
    return archive_.at(2 * std::size_t{state} + (owner == sim::PartyId::kB ? 1 : 0));
  }
  void sign_state(std::uint32_t state, const channel::StateVec& st);
  void on_round();
  /// Records the outcome and bumps the closed counter.
  void note_closed(CbOutcome outcome);

  channel::ChannelParams params_;
  Amount tower_reward_;
  crypto::KeyPair main_a_, main_b_, delayed_a_, delayed_b_, tower_key_;
  // Payout keys: the `<id>/cb/X/main` wallet keys, i.e. main_*.pk.
  Bytes payout_a_, payout_b_;

  bool open_ = false;
  std::uint32_t sn_ = 0;
  channel::StateVec st_;
  tx::OutPoint fund_op_;
  script::Script fund_script_;

  std::vector<CommitRecord> archive_;
  // Each party's stash of fully-signed revocation txs (the O(n) term).
  std::vector<tx::Transaction> revocations_held_by_a_, revocations_held_by_b_;

  CerberusWatchtower tower_a_{tx::OutPoint{}};
  CerberusWatchtower tower_b_{tx::OutPoint{}};

  bool monitor_online_ = true;
  CbOutcome outcome_ = CbOutcome::kNone;
  std::optional<Hash256> expected_close_txid_;
  std::optional<Hash256> pending_txid_;
  struct PendingSweep {
    tx::OutPoint op;
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

}  // namespace daric::cerberus
