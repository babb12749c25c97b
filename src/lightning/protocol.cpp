#include "src/lightning/protocol.h"

#include <stdexcept>

#include "src/channel/storage.h"
#include "src/crypto/sha256.h"
#include "src/daric/builders.h"
#include "src/daric/scripts.h"
#include "src/obs/event.h"
#include "src/obs/span.h"
#include "src/tx/sighash.h"
#include "src/tx/weight.h"

namespace daric::lightning {

using script::SighashFlag;
using sim::PartyId;

namespace {

const char* ln_outcome_name(LnOutcome o) {
  switch (o) {
    case LnOutcome::kNone: return "none";
    case LnOutcome::kCooperative: return "cooperative";
    case LnOutcome::kNonCollaborative: return "non-collaborative";
    case LnOutcome::kPunished: return "punished";
  }
  return "unknown";
}

void observe_weight(obs::Histogram* h, const tx::Transaction& t) {
  h->observe(static_cast<std::int64_t>(tx::measure(t).weight()));
}

}  // namespace

void LightningChannel::note_closed(LnOutcome outcome) {
  obs_.closed->inc();
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "lightning", params_.id, {},
                       {obs::Attr::s("phase", "closed"),
                        obs::Attr::s("outcome", ln_outcome_name(outcome))});
}

LightningChannel::LightningChannel(sim::Environment& env, channel::ChannelParams params)
    : Engine(env, "lightning", 400), params_(std::move(params)) {
  params_.validate(env_.delta());
  main_a_ = crypto::derive_keypair(params_.id + "/ln/A/main");
  main_b_ = crypto::derive_keypair(params_.id + "/ln/B/main");
  delayed_a_ = crypto::derive_keypair(params_.id + "/ln/A/delayed");
  delayed_b_ = crypto::derive_keypair(params_.id + "/ln/B/delayed");
  payout_a_ = main_a_.pk.compressed();
  payout_b_ = main_b_.pk.compressed();
  hooks_.add([this] { on_round(); });
}

crypto::KeyPair LightningChannel::revocation_keypair(PartyId owner, std::uint32_t state) const {
  // The per-commitment secret of `owner`'s commit #state; revealed to the
  // counterparty at revocation time.
  return crypto::derive_keypair(params_.id + "/ln/rev/" + sim::party_name(owner) + "/" +
                                std::to_string(state));
}

LightningChannel::CommitRecord LightningChannel::build_commit(PartyId owner, std::uint32_t state,
                                                              const channel::StateVec& st) const {
  const bool a = owner == PartyId::kA;
  CommitRecord rec;
  rec.owner = owner;
  rec.state = state;
  rec.rev = revocation_keypair(owner, state);
  rec.to_local =
      to_local_script(rec.rev.pk.compressed(), static_cast<std::uint32_t>(params_.t_punish),
                      (a ? delayed_a_ : delayed_b_).pk.compressed());
  tx::Transaction& t = rec.tx;
  t.inputs = {{fund_op_}};
  // Commitment number rides in nLockTime (BOLT 3 hides it there too; here
  // it doubles as the honest parties' state identifier).
  t.nlocktime = params_.s0 + state;
  t.outputs = {{a ? st.to_a : st.to_b, tx::Condition::p2wsh(rec.to_local)},
               {a ? st.to_b : st.to_a, tx::Condition::p2wpkh(a ? payout_b_ : payout_a_)}};
  for (const channel::Htlc& h : st.htlcs) {
    t.outputs.push_back(
        {h.cash, tx::Condition::p2wsh(daricch::htlc_script(h, payout_a_, payout_b_))});
  }
  rec.txid = t.txid();  // segwit: the witness attached later does not change it
  return rec;
}

void LightningChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  // Each party generates its new per-commitment point (1 exponentiation) —
  // counted toward Table 3's Exp column.
  crypto::op_counters().exps.fetch_add(2, std::memory_order_relaxed);

  CommitRecord ra = build_commit(PartyId::kA, state, st);
  CommitRecord rb = build_commit(PartyId::kB, state, st);
  // One digest cache per commit body, shared between the two signatures on
  // it and the verification below.
  const tx::SighashCache sh_a(ra.tx), sh_b(rb.tx);
  const Bytes sa_on_a = tx::sign_input(ra.tx, 0, main_a_, scheme, SighashFlag::kAll, &sh_a);
  const Bytes sb_on_a = tx::sign_input(ra.tx, 0, main_b_, scheme, SighashFlag::kAll, &sh_a);
  const Bytes sa_on_b = tx::sign_input(rb.tx, 0, main_a_, scheme, SighashFlag::kAll, &sh_b);
  const Bytes sb_on_b = tx::sign_input(rb.tx, 0, main_b_, scheme, SighashFlag::kAll, &sh_b);
  // Each party verifies the counterparty's signature on its own commit
  // (Table 3: 1 verification per party at m = 0).
  auto check = [&](const tx::SighashCache& sh, const crypto::Point& pk, const Bytes& wire) {
    const auto dec = script::decode_wire_sig(wire, scheme.signature_size());
    if (!dec || !scheme.verify(pk, sh.digest(0, SighashFlag::kAll), dec->raw))
      throw std::logic_error("counterparty signature invalid");
  };
  check(sh_a, main_b_.pk, sb_on_a);  // A checks B's sig on TX^A
  check(sh_b, main_a_.pk, sa_on_b);  // B checks A's sig on TX^B
  daricch::attach_funding_witness(ra.tx, 0, fund_script_, sa_on_a, sb_on_a);
  daricch::attach_funding_witness(rb.tx, 0, fund_script_, sa_on_b, sb_on_b);
  commit_a_ = ra.tx;
  commit_b_ = rb.tx;
  archive_.push_back(std::move(ra));
  archive_.push_back(std::move(rb));
}

bool LightningChannel::create() {
  fund_script_ = script::multisig_2of2(main_a_.pk.compressed(), main_b_.pk.compressed());
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  // Mint only once the opening handshake got through, so an aborted create
  // leaves no funds stranded in the 2-of-2.
  if (send_reliable(PartyId::kA, "ln/create") == 0) return false;
  fund_op_ = env_.ledger().mint(params_.capacity(), tx::Condition::p2wsh(fund_script_));
  sign_state(0, st_);
  open_ = true;
  obs_.opened->inc();
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "lightning", params_.id, {},
                       {obs::Attr::s("phase", "open"), obs::Attr::i("sn", 0)});
  return true;
}

bool LightningChannel::update(const channel::StateVec& next) {
  OBS_SPAN("lightning.update.total");
  if (!open_) throw std::logic_error("channel not open");
  if (next.total() != params_.capacity())
    throw std::invalid_argument("state must preserve capacity");
  if (next.to_a <= 0 || next.to_b <= 0)
    throw std::invalid_argument("both balances must stay positive");
  // Two rounds to cross-sign the new commitments, one to exchange the old
  // states' revocation secrets. A peer silent past the retry budget means
  // the sender aborts to its newest fully-signed commit.
  if (send_or_close(PartyId::kA, "ln/commit-sig") == 0) return false;
  if (send_or_close(PartyId::kB, "ln/commit-sig") == 0) return false;
  sign_state(sn_ + 1, next);
  if (send_or_close(PartyId::kA, "ln/revoke") == 0) return false;
  // Reveal the state-sn_ secrets; the counterparty stores them forever.
  secrets_of_a_.push_back(record(PartyId::kA, sn_).rev.sk.to_be_bytes());
  secrets_of_b_.push_back(record(PartyId::kB, sn_).rev.sk.to_be_bytes());
  ++sn_;
  st_ = next;
  obs_.updates->inc();
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "lightning", params_.id, {},
                       {obs::Attr::s("phase", "updated"),
                        obs::Attr::i("sn", static_cast<std::int64_t>(sn_))});
  return true;
}

bool LightningChannel::cooperative_close(PartyId) {
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
  if (send_or_close(PartyId::kA, "ln/close") == 0) return false;
  observe_weight(obs_.weight, close);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "lightning", params_.id, {},
                       {obs::Attr::s("phase", "coop_close_posted")});
  env_.ledger().post(close);
  expected_close_txid_ = close.txid();
  return run_until_closed();
}

void LightningChannel::force_close(PartyId who) {
  if (!open_) return;
  const tx::Transaction& cm = who == PartyId::kA ? commit_a_ : commit_b_;
  obs_.force_close->inc();
  observe_weight(obs_.weight, cm);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kForceClose, "lightning", params_.id,
                       sim::party_name(who),
                       {obs::Attr::i("sn", static_cast<std::int64_t>(sn_)),
                        obs::Attr::i("revoked", 0)});
  env_.ledger().post(cm);
}

void LightningChannel::publish_old_commit(PartyId who, std::uint32_t state) {
  const tx::Transaction& cm = record(who, state).tx;  // throws std::out_of_range if absent
  obs_.disputes->inc();
  observe_weight(obs_.weight, cm);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kForceClose, "lightning", params_.id,
                       sim::party_name(who),
                       {obs::Attr::i("sn", static_cast<std::int64_t>(state)),
                        obs::Attr::i("revoked", state < sn_ ? 1 : 0)});
  env_.ledger().post(cm);
}

void LightningChannel::on_round() {
  if (!open_ || outcome_ != LnOutcome::kNone) return;
  if (!monitor_online_) return;
  auto& ledger = env_.ledger();

  if (pending_claim_txid_) {
    if (ledger.is_confirmed(*pending_claim_txid_)) {
      outcome_ = LnOutcome::kPunished;
      open_ = false;
      note_closed(outcome_);
    }
    return;
  }
  if (pending_sweep_) {
    const auto& scheme = env_.scheme();
    if (!pending_sweep_->posted && env_.now() >= pending_sweep_->post_round) {
      tx::Transaction sweep;
      sweep.inputs = {{pending_sweep_->to_local_op}};
      sweep.nlocktime = 0;
      const bool a = pending_sweep_->owner == PartyId::kA;
      sweep.outputs = {{pending_sweep_->cash, tx::Condition::p2wpkh(a ? payout_a_ : payout_b_)}};
      const Bytes sig =
          tx::sign_input(sweep, 0, a ? delayed_a_ : delayed_b_, scheme, SighashFlag::kAll);
      sweep.witnesses.resize(1);
      sweep.witnesses[0].stack = {sig, Bytes{}};  // ELSE (delayed) branch
      sweep.witnesses[0].witness_script = pending_sweep_->script;
      observe_weight(obs_.weight, sweep);
      if (env_.tracer().enabled())
        env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "lightning", params_.id,
                           sim::party_name(pending_sweep_->owner),
                           {obs::Attr::s("phase", "sweep_posted")});
      ledger.post(sweep);
      pending_sweep_->posted = true;
      pending_sweep_->txid = sweep.txid();
    } else if (pending_sweep_->posted && ledger.is_confirmed(pending_sweep_->txid)) {
      outcome_ = LnOutcome::kNonCollaborative;
      open_ = false;
      note_closed(outcome_);
    }
    return;
  }

  const auto spent_by = ledger.spender_txid(fund_op_);
  if (!spent_by) return;
  const Hash256 id = *spent_by;
  if (expected_close_txid_ && id == *expected_close_txid_) {
    outcome_ = LnOutcome::kCooperative;
    open_ = false;
    note_closed(outcome_);
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
    // Revoked commitment: the victim signs with the revealed secret and
    // claims the cheater's to_local output instantly.
    const bool victim_is_a = rec->owner == PartyId::kB;
    tx::Transaction claim;
    claim.inputs = {{{id, 0}}};
    claim.nlocktime = 0;
    claim.outputs = {{rec->tx.outputs[0].cash,
                      tx::Condition::p2wpkh(victim_is_a ? payout_a_ : payout_b_)}};
    const Bytes sig = tx::sign_input(claim, 0, rec->rev, env_.scheme(), SighashFlag::kAll);
    claim.witnesses.resize(1);
    claim.witnesses[0].stack = {sig, Bytes{1}};  // IF (revocation) branch
    claim.witnesses[0].witness_script = rec->to_local;
    obs_.punish_posted->inc();
    observe_weight(obs_.weight, claim);
    if (env_.tracer().enabled())
      env_.tracer().emit(env_.now(), obs::EventKind::kPunish, "lightning", params_.id,
                         sim::party_name(victim_is_a ? PartyId::kA : PartyId::kB),
                         {obs::Attr::i("revoked_state", static_cast<std::int64_t>(rec->state)),
                          obs::Attr::i("latest_sn", static_cast<std::int64_t>(sn_))});
    ledger.post(claim);
    pending_claim_txid_ = claim.txid();
    return;
  }

  // Latest commitment: owner sweeps its to_local after the CSV delay.
  const auto conf = ledger.confirmation_round(id);
  pending_sweep_ = PendingSweep{{id, 0},
                                rec->to_local,
                                rec->owner,
                                rec->tx.outputs[0].cash,
                                (conf ? *conf : env_.now()) + params_.t_punish,
                                false,
                                {}};
}

std::size_t LightningChannel::party_storage_bytes(PartyId who) const {
  if (!open_) return 0;
  channel::StorageMeter m;
  m.add_raw(36);  // funding outpoint
  // Latest own commit + counterparty's revealed secrets (O(n) term).
  m.add_tx(who == PartyId::kA ? commit_a_ : commit_b_);
  const auto& secrets = who == PartyId::kA ? secrets_of_b_ : secrets_of_a_;
  for (const Bytes& s : secrets) m.add_raw(s.size());
  m.add_raw(3 * (32 + 33));  // main/delayed/current-rev own keys
  m.add_raw(3 * 33);         // counterparty pubkeys
  return m.bytes();
}

const tx::Transaction& LightningChannel::latest_commit(PartyId who) const {
  return who == PartyId::kA ? commit_a_ : commit_b_;
}

const tx::Transaction& LightningChannel::archived_commit(PartyId owner,
                                                         std::uint32_t state) const {
  return record(owner, state).tx;
}

const script::Script& LightningChannel::archived_to_local(PartyId owner,
                                                          std::uint32_t state) const {
  return record(owner, state).to_local;
}

crypto::Scalar LightningChannel::revealed_secret(PartyId owner, std::uint32_t state) const {
  if (state >= sn_) throw std::logic_error("state not revoked yet");
  const auto& secrets = owner == PartyId::kA ? secrets_of_a_ : secrets_of_b_;
  return crypto::Scalar::from_be_bytes_reduce(secrets.at(state));
}

}  // namespace daric::lightning
