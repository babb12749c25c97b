#include "src/fppw/protocol.h"

#include <stdexcept>

#include "src/channel/storage.h"
#include "src/daric/builders.h"
#include "src/daric/scripts.h"
#include "src/fppw/scripts.h"
#include "src/obs/span.h"
#include "src/tx/sighash.h"
#include "src/tx/weight.h"

namespace daric::fppw {

using script::Op;
using script::SighashFlag;
using sim::PartyId;

FppwChannel::FppwChannel(sim::Environment& env, channel::ChannelParams params)
    : Engine(env, "fppw", 400), params_(std::move(params)) {
  params_.validate(env_.delta());
  if (!env_.scheme().supports_adaptor())
    throw std::invalid_argument("FPPW needs adaptor signatures (publisher identification)");
  const std::string base = params_.id + "/fppw/";
  main_a_ = crypto::derive_keypair(base + "A/main");
  main_b_ = crypto::derive_keypair(base + "B/main");
  rev_a_ = crypto::derive_keypair(base + "A/rev");
  rev_b_ = crypto::derive_keypair(base + "B/rev");
  rev_w_ = crypto::derive_keypair(base + "W/rev");
  pen_a_ = crypto::derive_keypair(base + "A/pen");
  pen_b_ = crypto::derive_keypair(base + "B/pen");
  tower_payout_ = crypto::derive_keypair(base + "W/payout");
  payout_a_ = main_a_.pk.compressed();
  payout_b_ = main_b_.pk.compressed();
  out0_ = fppw_out0_script(rev_a_.pk.compressed(), rev_b_.pk.compressed(),
                           rev_w_.pk.compressed(), static_cast<std::uint32_t>(params_.t_punish),
                           main_a_.pk.compressed(), main_b_.pk.compressed());
  hooks_.add([this] { on_round(); });
}

FppwChannel::StateSecrets FppwChannel::state_secrets(std::uint32_t state) const {
  const std::string base = params_.id + "/fppw/state/" + std::to_string(state);
  return {crypto::derive_keypair(base + "/yA"), crypto::derive_keypair(base + "/yB")};
}

script::Script FppwChannel::out1_script(const StateSecrets& sec) const {
  return fppw_out1_script(rev_a_.pk.compressed(), rev_b_.pk.compressed(),
                          rev_w_.pk.compressed(),
                          static_cast<std::uint32_t>(params_.t_punish),
                          pen_a_.pk.compressed(), pen_b_.pk.compressed(),
                          sec.y_a.pk.compressed(), sec.y_b.pk.compressed());
}

tx::Transaction FppwChannel::build_revocation(std::uint32_t state, PartyId victim) const {
  const ArchivedState& s = archive_.at(state);
  tx::Transaction t;
  t.inputs = {{{s.commit_txid, 0}}, {{s.commit_txid, 1}}};
  t.nlocktime = 0;
  t.outputs = {{params_.capacity(),
                tx::Condition::p2wpkh(victim == PartyId::kA ? payout_a_ : payout_b_)},
               {collateral(), tx::Condition::p2wpkh(tower_payout_.pk.compressed())}};
  t.witnesses.resize(2);
  // Witnesses are outside the sighash, so one cache serves all six signatures.
  const auto& scheme = env_.scheme();
  const tx::SighashCache sh(t);
  for (std::size_t i = 0; i < 2; ++i) {
    const Bytes sa = tx::sign_input(t, i, rev_a_, scheme, SighashFlag::kAll, &sh);
    const Bytes sb = tx::sign_input(t, i, rev_b_, scheme, SighashFlag::kAll, &sh);
    const Bytes sw = tx::sign_input(t, i, rev_w_, scheme, SighashFlag::kAll, &sh);
    t.witnesses[i].stack = {Bytes{}, sa, sb, sw, Bytes{1}};
    t.witnesses[i].witness_script = i == 0 ? out0_ : s.out1;
  }
  return t;
}

void FppwChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  StateSecrets sec = state_secrets(state);
  script::Script out1 = out1_script(sec);
  commit_body_ = tx::Transaction{};
  commit_body_.inputs = {{fund_op_}};
  commit_body_.nlocktime = params_.s0 + state;
  commit_body_.outputs = {{params_.capacity(), tx::Condition::p2wsh(out0_)},
                          {collateral(), tx::Condition::p2wsh(out1)}};
  const Hash256 commit_txid = commit_body_.txid();
  const Hash256 digest = tx::sighash_digest(commit_body_, 0, SighashFlag::kAll);
  crypto::op_counters().exps.fetch_add(2, std::memory_order_relaxed);
  crypto::op_counters().signs.fetch_add(2, std::memory_order_relaxed);
  pre_a_ = crypto::adaptor_pre_sign(main_a_, digest, sec.y_b.pk);
  pre_b_ = crypto::adaptor_pre_sign(main_b_, digest, sec.y_a.pk);

  split_body_ = tx::Transaction{};
  split_body_.inputs = {{{commit_txid, 0}}};
  split_body_.nlocktime = 0;
  split_body_.outputs = daricch::state_outputs(st, payout_a_, payout_b_);
  const tx::SighashCache sh_split(split_body_);
  split_sig_a_ = tx::sign_input(split_body_, 0, main_a_, scheme, SighashFlag::kAll, &sh_split);
  split_sig_b_ = tx::sign_input(split_body_, 0, main_b_, scheme, SighashFlag::kAll, &sh_split);

  archive_.push_back(
      {commit_body_, commit_txid, std::move(out1), pre_a_, pre_b_, std::move(sec)});
}

std::optional<std::uint32_t> FppwChannel::state_of(const Hash256& commit_txid) const {
  for (std::uint32_t i = 0; i < archive_.size(); ++i) {
    if (archive_[i].commit_txid == commit_txid) return i;
  }
  return std::nullopt;
}

bool FppwChannel::create() {
  fund_script_ = script::multisig_2of2(main_a_.pk.compressed(), main_b_.pk.compressed());
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  // Mint only once the opening handshake got through, so an aborted create
  // leaves no funds stranded in the 2-of-2. The funding holds channel
  // capacity plus the tower's collateral (escrowed at setup; the tower
  // recovers it through every exit path).
  if (send_reliable(PartyId::kA, "fppw/create") == 0) return false;
  fund_op_ = env_.ledger().mint(params_.capacity() + collateral(),
                                tx::Condition::p2wsh(fund_script_));
  sign_state(0, st_);
  open_ = true;
  obs_.opened->inc();
  return true;
}

bool FppwChannel::update(const channel::StateVec& next) {
  OBS_SPAN("fppw.update.total");
  if (!open_) throw std::logic_error("channel not open");
  if (next.total() != params_.capacity())
    throw std::invalid_argument("state must preserve capacity");
  if (next.to_a <= 0 || next.to_b <= 0)
    throw std::invalid_argument("both balances must stay positive");
  // A peer silent past the retry budget means the sender aborts to its
  // newest fully-signed commit.
  if (send_or_close(PartyId::kA, "fppw/presig") == 0) return false;
  if (send_or_close(PartyId::kB, "fppw/split-sig") == 0) return false;
  if (send_or_close(PartyId::kA, "fppw/revoke") == 0) return false;
  // Revoke the current state: both revocation variants go to the tower.
  const std::uint32_t old = sn_;
  tower_revocations_.push_back({archive_.at(old).commit_txid, build_revocation(old, PartyId::kA)});
  tower_revocations_.push_back({archive_.at(old).commit_txid, build_revocation(old, PartyId::kB)});
  sign_state(old + 1, next);
  ++sn_;
  st_ = next;
  obs_.updates->inc();
  return true;
}

tx::Transaction FppwChannel::assemble_commit(PartyId publisher, std::uint32_t state) const {
  const ArchivedState& s = archive_.at(state);
  tx::Transaction t = s.commit_body;
  const Hash256 digest = tx::sighash_digest(t, 0, SighashFlag::kAll);
  Bytes sig_a, sig_b;
  if (publisher == PartyId::kA) {
    sig_a = script::encode_wire_sig(env_.scheme().sign_with(main_a_, digest), SighashFlag::kAll);
    sig_b = script::encode_wire_sig(crypto::adaptor_adapt(s.pre_b, s.sec.y_a.sk),
                                    SighashFlag::kAll);
  } else {
    sig_a = script::encode_wire_sig(crypto::adaptor_adapt(s.pre_a, s.sec.y_b.sk),
                                    SighashFlag::kAll);
    sig_b = script::encode_wire_sig(env_.scheme().sign_with(main_b_, digest), SighashFlag::kAll);
  }
  daricch::attach_funding_witness(t, 0, fund_script_, sig_a, sig_b);
  return t;
}

bool FppwChannel::cooperative_close(PartyId) {
  if (!open_) throw std::logic_error("channel not open");
  const auto& scheme = env_.scheme();
  tx::Transaction close;
  close.inputs = {{fund_op_}};
  close.nlocktime = 0;
  close.outputs = daricch::state_outputs(st_, payout_a_, payout_b_);
  close.outputs.push_back({collateral(), tx::Condition::p2wpkh(tower_payout_.pk.compressed())});
  const tx::SighashCache sh_close(close);
  const Bytes sa = tx::sign_input(close, 0, main_a_, scheme, SighashFlag::kAll, &sh_close);
  const Bytes sb = tx::sign_input(close, 0, main_b_, scheme, SighashFlag::kAll, &sh_close);
  daricch::attach_funding_witness(close, 0, fund_script_, sa, sb);
  if (send_or_close(PartyId::kA, "fppw/close") == 0) return false;
  obs_.weight->observe(static_cast<std::int64_t>(tx::measure(close).weight()));
  env_.ledger().post(close);
  expected_close_txid_ = close.txid();
  return run_until_closed();
}

void FppwChannel::force_close(PartyId who) {
  if (!open_) return;
  const tx::Transaction cm = assemble_commit(who, sn_);
  obs_.force_close->inc();
  obs_.weight->observe(static_cast<std::int64_t>(tx::measure(cm).weight()));
  env_.ledger().post(cm);
}

void FppwChannel::publish_old_commit(PartyId who, std::uint32_t state) {
  if (state >= archive_.size()) throw std::out_of_range("no archived commit");
  const tx::Transaction cm = assemble_commit(who, state);
  obs_.disputes->inc();
  obs_.weight->observe(static_cast<std::int64_t>(tx::measure(cm).weight()));
  env_.ledger().post(cm);
}

void FppwChannel::note_closed(FppwOutcome outcome) {
  outcome_ = outcome;
  open_ = false;
  obs_.closed->inc();
}

void FppwChannel::on_round() {
  if (!open_ || outcome_ != FppwOutcome::kNone) return;
  if (!monitor_online_) return;
  auto& ledger = env_.ledger();
  const auto& scheme = env_.scheme();

  if (pending_txid_) {
    if (ledger.is_confirmed(*pending_txid_))
      note_closed(pending_is_compensation_ ? FppwOutcome::kCompensated
                                           : FppwOutcome::kPunished);
    return;
  }
  if (pending_split_) {
    if (!pending_split_->posted && env_.now() >= pending_split_->post_round) {
      ledger.post(pending_split_->bound);
      pending_split_->posted = true;
    } else if (pending_split_->posted && ledger.is_confirmed(pending_split_->txid)) {
      note_closed(FppwOutcome::kNonCollaborative);
    }
    return;
  }

  // Tower-failure path: fraud seen, tower offline, CSV matured.
  if (fraud_seen_round_ && !tower_online_) {
    if (env_.now() >= *fraud_seen_round_ + params_.t_punish) {
      // Identify the publisher by extraction, then claim the collateral.
      const auto state = state_of(*fraud_commit_txid_);
      if (!state) return;
      const ArchivedState* rec = &archive_[*state];
      const auto spender = ledger.spender_of(fund_op_);
      if (!spender) return;
      const StateSecrets& sec = rec->sec;
      const auto raw_a =
          script::decode_wire_sig(spender->witnesses[0].stack[1], scheme.signature_size());
      const auto raw_b =
          script::decode_wire_sig(spender->witnesses[0].stack[2], scheme.signature_size());
      if (!raw_a || !raw_b) return;
      for (PartyId publisher : {PartyId::kA, PartyId::kB}) {
        const bool a_pub = publisher == PartyId::kA;
        crypto::Scalar y;
        try {
          y = crypto::adaptor_extract(a_pub ? raw_b->raw : raw_a->raw,
                                      a_pub ? rec->pre_b : rec->pre_a);
        } catch (const std::invalid_argument&) {
          continue;
        }
        const crypto::Point& y_pk = a_pub ? sec.y_a.pk : sec.y_b.pk;
        if (!(crypto::Point::mul_gen(y) == y_pk)) continue;

        tx::Transaction pen;
        pen.inputs = {{{*fraud_commit_txid_, 1}}};
        pen.nlocktime = 0;
        pen.outputs = {{collateral(), tx::Condition::p2wpkh(a_pub ? payout_b_ : payout_a_)}};
        const tx::SighashCache sh_pen(pen);
        const Bytes sig_pen = tx::sign_input(pen, 0, a_pub ? pen_b_ : pen_a_, scheme,
                                             SighashFlag::kAll, &sh_pen);
        const Bytes sig_y = tx::sign_input(pen, 0, crypto::KeyPair{y, y_pk}, scheme,
                                           SighashFlag::kAll, &sh_pen);
        pen.witnesses.resize(1);
        pen.witnesses[0].stack = {Bytes{}, sig_pen, sig_y,
                                  a_pub ? Bytes{1} : Bytes{}, Bytes{}};
        pen.witnesses[0].witness_script = rec->out1;
        ledger.post(pen);
        obs_.punish_posted->inc();
        pending_txid_ = pen.txid();
        pending_is_compensation_ = true;
        return;
      }
    }
    return;
  }

  const auto spent_by = ledger.spender_txid(fund_op_);
  if (!spent_by) return;
  const Hash256 id = *spent_by;
  if (expected_close_txid_ && id == *expected_close_txid_) {
    note_closed(FppwOutcome::kCooperative);
    return;
  }
  const auto state = state_of(id);
  if (!state) return;
  const ArchivedState* rec = &archive_[*state];

  if (*state < sn_) {
    // Revoked: the tower (if online) fires the pre-signed revocation for
    // the non-publishing victim.
    if (!tower_online_) {
      fraud_seen_round_ = *ledger.confirmation_round(id);
      fraud_commit_txid_ = id;
      return;
    }
    // Identify the publisher: if B's on-chain signature slot is the
    // adaptor-completion of pre_b, then A published, so B is the victim.
    const auto spender = ledger.spender_of(fund_op_);
    const auto raw_b =
        script::decode_wire_sig(spender->witnesses[0].stack[2], scheme.signature_size());
    PartyId victim = PartyId::kA;  // assume B published
    if (raw_b) {
      try {
        const crypto::Scalar y = crypto::adaptor_extract(raw_b->raw, rec->pre_b);
        if (crypto::Point::mul_gen(y) == rec->sec.y_a.pk) victim = PartyId::kB;
      } catch (const std::invalid_argument&) {
      }
    }
    for (const RevocationRecord& rv : tower_revocations_) {
      if (rv.commit_txid != id) continue;
      // The stored pair is [victim=A, victim=B]; match by payout key.
      const auto& payout = rv.revocation.outputs[0].cond;
      const bool pays_a = payout == tx::Condition::p2wpkh(payout_a_);
      if ((victim == PartyId::kA) == pays_a) {
        ledger.post(rv.revocation);
        obs_.punish_posted->inc();
        pending_txid_ = rv.revocation.txid();
        pending_is_compensation_ = false;
        return;
      }
    }
    return;
  }

  // Latest commit: split after the CSV delay (collateral release elided —
  // the tower's exit is part of the cooperative teardown in this engine).
  const auto conf = ledger.confirmation_round(id);
  tx::Transaction split = split_body_;
  split.witnesses.resize(1);
  split.witnesses[0].stack = {Bytes{}, split_sig_a_, split_sig_b_, Bytes{}};
  split.witnesses[0].witness_script = out0_;
  const Hash256 split_txid = split.txid();
  pending_split_ =
      PendingSplit{std::move(split), split_txid, (conf ? *conf : env_.now()) + params_.t_punish};
}

std::size_t FppwChannel::party_storage_bytes(PartyId who) const {
  if (!open_) return 0;
  (void)who;
  channel::StorageMeter m;
  m.add_raw(36);
  m.add_tx(commit_body_);
  m.add_tx(split_body_);
  m.add_signature();
  m.add_raw(33 + 32);  // counterparty pre-signature
  // Parties also retain the per-state revocations they co-signed (O(n)).
  for (const RevocationRecord& rv : tower_revocations_) m.add_tx(rv.revocation);
  m.add_raw(5 * (32 + 33));
  return m.bytes();
}

std::size_t FppwChannel::tower_storage_bytes() const {
  channel::StorageMeter m;
  m.add_raw(36 + 33);
  for (const RevocationRecord& rv : tower_revocations_) {
    m.add_raw(32);
    m.add_tx(rv.revocation);
  }
  return m.bytes();
}

}  // namespace daric::fppw
