#include "src/cerberus/protocol.h"

#include <stdexcept>

#include "src/channel/storage.h"
#include "src/daric/builders.h"
#include "src/obs/span.h"
#include "src/tx/weight.h"
#include "src/tx/sighash.h"

namespace daric::cerberus {

using script::SighashFlag;
using sim::PartyId;

script::Script cerberus_output_script(BytesView rev1, BytesView rev2, std::uint32_t csv,
                                      BytesView delayed_pk) {
  script::Script s;
  s.op(script::Op::OP_IF)
      .small_int(2)
      .push(rev1)
      .push(rev2)
      .small_int(2)
      .op(script::Op::OP_CHECKMULTISIG)
      .op(script::Op::OP_ELSE)
      .num4(csv)
      .op(script::Op::OP_CHECKSEQUENCEVERIFY)
      .op(script::Op::OP_DROP)
      .push(delayed_pk)
      .op(script::Op::OP_CHECKSIG)
      .op(script::Op::OP_ENDIF);
  return s;
}

// --- Watchtower ------------------------------------------------------------

void CerberusWatchtower::on_round(ledger::Ledger& l) {
  if (retired_) return;
  const auto id = l.spender_txid(fund_op_);
  if (!id) return;
  // The funding output is spent either way: nothing is left to watch.
  retired_ = true;
  for (const RevocationPackage& pkg : packages_) {
    if (pkg.revoked_commit_txid == *id) {
      l.post(pkg.revocation);
      reacted_ = true;
      return;
    }
  }
}

std::size_t CerberusWatchtower::storage_bytes() const {
  channel::StorageMeter m;
  m.add_raw(36);
  for (const RevocationPackage& pkg : packages_) {
    m.add_raw(32);
    m.add_tx(pkg.revocation);
  }
  return m.bytes();
}

// --- Channel ----------------------------------------------------------------

CerberusChannel::CerberusChannel(sim::Environment& env, channel::ChannelParams params,
                                 Amount tower_reward)
    : Engine(env, "cerberus", 400), params_(std::move(params)), tower_reward_(tower_reward) {
  params_.validate(env_.delta());
  if (tower_reward_ <= 0 || tower_reward_ >= params_.capacity())
    throw std::invalid_argument("tower reward must be positive and below the capacity");
  main_a_ = crypto::derive_keypair(params_.id + "/cb/A/main");
  main_b_ = crypto::derive_keypair(params_.id + "/cb/B/main");
  delayed_a_ = crypto::derive_keypair(params_.id + "/cb/A/delayed");
  delayed_b_ = crypto::derive_keypair(params_.id + "/cb/B/delayed");
  tower_key_ = crypto::derive_keypair(params_.id + "/cb/tower");
  payout_a_ = main_a_.pk.compressed();
  payout_b_ = main_b_.pk.compressed();
  hooks_.add([this] { on_round(); });
  hooks_.add([this] { tower_a_.on_round(env_.ledger()); });
  hooks_.add([this] { tower_b_.on_round(env_.ledger()); });
}

crypto::KeyPair CerberusChannel::rev_keypair(PartyId owner, std::uint32_t state,
                                             int leg) const {
  return crypto::derive_keypair(params_.id + "/cb/rev/" + sim::party_name(owner) + "/" +
                                std::to_string(state) + "/" + std::to_string(leg));
}

CerberusChannel::CommitRecord CerberusChannel::build_commit(PartyId owner, std::uint32_t state,
                                                            const channel::StateVec& st) const {
  const bool a = owner == PartyId::kA;
  const auto csv = static_cast<std::uint32_t>(params_.t_punish);
  CommitRecord rec;
  rec.owner = owner;
  rec.state = state;
  for (int leg = 0; leg < 4; ++leg) rec.rev[leg] = rev_keypair(owner, state, leg);
  // Both outputs carry a revocation path (H.6's two-P2WSH-output commit).
  rec.out0_script = cerberus_output_script(rec.rev[0].pk.compressed(),
                                           rec.rev[1].pk.compressed(), csv,
                                           (a ? delayed_a_ : delayed_b_).pk.compressed());
  rec.out1_script = cerberus_output_script(rec.rev[2].pk.compressed(),
                                           rec.rev[3].pk.compressed(), csv,
                                           (a ? delayed_b_ : delayed_a_).pk.compressed());
  tx::Transaction& t = rec.tx;
  t.inputs = {{fund_op_}};
  t.nlocktime = params_.s0 + state;
  t.outputs = {{a ? st.to_a : st.to_b, tx::Condition::p2wsh(rec.out0_script)},
               {a ? st.to_b : st.to_a, tx::Condition::p2wsh(rec.out1_script)}};
  rec.txid = t.txid();  // segwit: the witness attached later does not change it
  return rec;
}

tx::Transaction CerberusChannel::build_revocation(const CommitRecord& rec,
                                                  PartyId victim) const {
  // Claims both commit outputs: (capacity − reward) to the victim, the
  // reward to the watchtower — the incentive that keeps the tower honest.
  tx::Transaction t;
  t.inputs = {{{rec.txid, 0}}, {{rec.txid, 1}}};
  t.nlocktime = 0;
  t.outputs = {{params_.capacity() - tower_reward_,
                tx::Condition::p2wpkh(victim == PartyId::kA ? payout_a_ : payout_b_)},
               {tower_reward_, tx::Condition::p2wpkh(tower_key_.pk.compressed())}};
  t.witnesses.resize(2);
  // Witnesses are outside the sighash, so one cache serves all four signatures.
  const tx::SighashCache sh(t);
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t leg = i * 2;
    const Bytes sig1 =
        tx::sign_input(t, i, rec.rev[leg], env_.scheme(), SighashFlag::kAll, &sh);
    const Bytes sig2 =
        tx::sign_input(t, i, rec.rev[leg + 1], env_.scheme(), SighashFlag::kAll, &sh);
    t.witnesses[i].stack = {Bytes{}, sig1, sig2, Bytes{1}};  // revocation branch
    t.witnesses[i].witness_script = i == 0 ? rec.out0_script : rec.out1_script;
  }
  return t;
}

void CerberusChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  for (const PartyId owner : {PartyId::kA, PartyId::kB}) {
    CommitRecord rec = build_commit(owner, state, st);
    const tx::SighashCache sh(rec.tx);
    const Bytes sa = tx::sign_input(rec.tx, 0, main_a_, scheme, SighashFlag::kAll, &sh);
    const Bytes sb = tx::sign_input(rec.tx, 0, main_b_, scheme, SighashFlag::kAll, &sh);
    daricch::attach_funding_witness(rec.tx, 0, fund_script_, sa, sb);
    archive_.push_back(std::move(rec));
  }
}

bool CerberusChannel::create() {
  fund_script_ = script::multisig_2of2(main_a_.pk.compressed(), main_b_.pk.compressed());
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  // Mint only once the opening handshake got through, so an aborted create
  // leaves no funds stranded in the 2-of-2.
  if (send_reliable(PartyId::kA, "cb/create") == 0) return false;
  fund_op_ = env_.ledger().mint(params_.capacity(), tx::Condition::p2wsh(fund_script_));
  tower_a_ = CerberusWatchtower(fund_op_);
  tower_b_ = CerberusWatchtower(fund_op_);
  sign_state(0, st_);
  open_ = true;
  obs_.opened->inc();
  return true;
}

bool CerberusChannel::update(const channel::StateVec& next) {
  OBS_SPAN("cerberus.update.total");
  if (!open_) throw std::logic_error("channel not open");
  if (next.total() != params_.capacity())
    throw std::invalid_argument("state must preserve capacity");
  if (next.to_a <= tower_reward_ || next.to_b <= tower_reward_)
    throw std::invalid_argument("balances must exceed the tower reward");
  // A peer silent past the retry budget means the sender aborts to its
  // newest fully-signed commit.
  if (send_or_close(PartyId::kA, "cb/commit-sig") == 0) return false;
  if (send_or_close(PartyId::kB, "cb/revocation-sig") == 0) return false;
  // Revoke the *current* state: both parties co-sign the revocation txs
  // for both old commits and hand them to the victims' towers.
  const std::uint32_t old = sn_;
  for (const PartyId owner : {PartyId::kA, PartyId::kB}) {
    const CommitRecord& rec = record(owner, old);
    const PartyId victim = other(owner);
    tx::Transaction rv = build_revocation(rec, victim);
    (victim == PartyId::kA ? revocations_held_by_a_ : revocations_held_by_b_).push_back(rv);
    tower(victim).add_package({rec.txid, std::move(rv)});
  }
  sign_state(old + 1, next);
  ++sn_;
  st_ = next;
  obs_.updates->inc();
  return true;
}

bool CerberusChannel::cooperative_close(PartyId) {
  if (!open_) throw std::logic_error("channel not open");
  const auto& scheme = env_.scheme();
  tx::Transaction close;
  close.inputs = {{fund_op_}};
  close.nlocktime = 0;
  close.outputs = daricch::state_outputs(st_, payout_a_, payout_b_);
  const tx::SighashCache sh_close(close);
  const Bytes sa = tx::sign_input(close, 0, main_a_, scheme, SighashFlag::kAll, &sh_close);
  const Bytes sb = tx::sign_input(close, 0, main_b_, scheme, SighashFlag::kAll, &sh_close);
  daricch::attach_funding_witness(close, 0, fund_script_, sa, sb);
  if (send_or_close(PartyId::kA, "cb/close") == 0) return false;
  obs_.weight->observe(static_cast<std::int64_t>(tx::measure(close).weight()));
  env_.ledger().post(close);
  expected_close_txid_ = close.txid();
  return run_until_closed();
}

void CerberusChannel::force_close(PartyId who) {
  if (!open_) return;
  const tx::Transaction& cm = latest_commit(who);
  obs_.force_close->inc();
  obs_.weight->observe(static_cast<std::int64_t>(tx::measure(cm).weight()));
  env_.ledger().post(cm);
}

void CerberusChannel::publish_old_commit(PartyId who, std::uint32_t state) {
  const tx::Transaction& cm = record(who, state).tx;  // throws std::out_of_range if absent
  obs_.disputes->inc();
  obs_.weight->observe(static_cast<std::int64_t>(tx::measure(cm).weight()));
  env_.ledger().post(cm);
}

void CerberusChannel::note_closed(CbOutcome outcome) {
  outcome_ = outcome;
  open_ = false;
  obs_.closed->inc();
}

void CerberusChannel::on_round() {
  if (!open_ || outcome_ != CbOutcome::kNone) return;
  if (!monitor_online_) return;
  auto& ledger = env_.ledger();

  if (pending_txid_) {
    if (ledger.is_confirmed(*pending_txid_)) note_closed(CbOutcome::kPunished);
    return;
  }
  if (pending_sweep_) {
    if (!pending_sweep_->posted && env_.now() >= pending_sweep_->post_round) {
      tx::Transaction sweep;
      sweep.inputs = {{pending_sweep_->op}};
      sweep.nlocktime = 0;
      const bool a = pending_sweep_->owner == PartyId::kA;
      sweep.outputs = {{pending_sweep_->cash, tx::Condition::p2wpkh(a ? payout_a_ : payout_b_)}};
      const Bytes sig = tx::sign_input(sweep, 0, a ? delayed_a_ : delayed_b_, env_.scheme(),
                                       SighashFlag::kAll);
      sweep.witnesses.resize(1);
      sweep.witnesses[0].stack = {sig, Bytes{}};
      sweep.witnesses[0].witness_script = pending_sweep_->script;
      ledger.post(sweep);
      pending_sweep_->posted = true;
      pending_sweep_->txid = sweep.txid();
    } else if (pending_sweep_->posted && ledger.is_confirmed(pending_sweep_->txid)) {
      note_closed(CbOutcome::kNonCollaborative);
    }
    return;
  }

  const auto spent_by = ledger.spender_txid(fund_op_);
  if (!spent_by) return;
  const Hash256 id = *spent_by;
  if (expected_close_txid_ && id == *expected_close_txid_) {
    note_closed(CbOutcome::kCooperative);
    return;
  }
  const CommitRecord* rec = nullptr;
  for (const CommitRecord& r : archive_) {
    if (r.txid == id) {
      rec = &r;
      break;
    }
  }
  if (!rec) return;

  if (rec->state < sn_) {
    // Revoked: the tower posts the pre-signed revocation; we just track it.
    const auto taker = ledger.spender_txid({id, 0});
    if (taker) {
      pending_txid_ = *taker;
      obs_.punish_posted->inc();
      if (ledger.is_confirmed(*pending_txid_)) note_closed(CbOutcome::kPunished);
    }
    return;
  }
  // Latest commit: owner sweeps its local output after T.
  const auto conf = ledger.confirmation_round(id);
  pending_sweep_ = PendingSweep{{id, 0},
                                rec->out0_script,
                                rec->owner,
                                rec->tx.outputs[0].cash,
                                (conf ? *conf : env_.now()) + params_.t_punish,
                                false,
                                {}};
}

std::size_t CerberusChannel::party_storage_bytes(PartyId who) const {
  if (!open_) return 0;
  channel::StorageMeter m;
  m.add_raw(36);
  m.add_tx(latest_commit(who));
  const auto& revs = who == PartyId::kA ? revocations_held_by_a_ : revocations_held_by_b_;
  for (const tx::Transaction& t : revs) m.add_tx(t);
  m.add_raw(3 * (32 + 33) + 3 * 33);
  return m.bytes();
}

}  // namespace daric::cerberus
