#include "src/generalized/protocol.h"

#include <stdexcept>

#include "src/channel/storage.h"
#include "src/crypto/sha256.h"
#include "src/daric/builders.h"
#include "src/daric/scripts.h"
#include "src/obs/event.h"
#include "src/obs/span.h"
#include "src/tx/sighash.h"
#include "src/tx/weight.h"

namespace daric::generalized {

using script::SighashFlag;
using sim::PartyId;

namespace {

const char* gc_outcome_name(GcOutcome o) {
  switch (o) {
    case GcOutcome::kNone: return "none";
    case GcOutcome::kCooperative: return "cooperative";
    case GcOutcome::kNonCollaborative: return "non-collaborative";
    case GcOutcome::kPunished: return "punished";
  }
  return "unknown";
}

void observe_weight(obs::Histogram* h, const tx::Transaction& t) {
  h->observe(static_cast<std::int64_t>(tx::measure(t).weight()));
}

}  // namespace

void GeneralizedChannel::note_closed(GcOutcome outcome) {
  obs_.closed->inc();
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "generalized", params_.id, {},
                       {obs::Attr::s("phase", "closed"),
                        obs::Attr::s("outcome", gc_outcome_name(outcome))});
}

GeneralizedChannel::GeneralizedChannel(sim::Environment& env, channel::ChannelParams params)
    : Engine(env, "generalized", 400), params_(std::move(params)) {
  params_.validate(env_.delta());
  if (!env_.scheme().supports_adaptor())
    throw std::invalid_argument(
        "Generalized channels need adaptor signatures; scheme '" + env_.scheme().name() +
        "' has none (this is the compatibility limitation Daric avoids)");
  main_a_ = crypto::derive_keypair(params_.id + "/gc/A/main");
  main_b_ = crypto::derive_keypair(params_.id + "/gc/B/main");
  payout_a_ = main_a_.pk.compressed();
  payout_b_ = main_b_.pk.compressed();
  hooks_.add([this] { on_round(); });
}

GeneralizedChannel::StateSecrets GeneralizedChannel::state_secrets(std::uint32_t state) const {
  const std::string base = params_.id + "/gc/state/" + std::to_string(state);
  auto preimage = [&](const std::string& label) {
    const Hash256 h = crypto::Sha256::tagged("daric/gc-rev", {
        reinterpret_cast<const Byte*>(label.data()), label.size()});
    return Bytes(h.view().begin(), h.view().end());
  };
  return {crypto::derive_keypair(base + "/yA"), crypto::derive_keypair(base + "/yB"),
          preimage(base + "/rA"), preimage(base + "/rB")};
}

script::Script GeneralizedChannel::output_script(const StateSecrets& sec) const {
  const Hash256 ha = crypto::Sha256::double_hash(sec.r_a);
  const Hash256 hb = crypto::Sha256::double_hash(sec.r_b);
  return commit_output_script(payout_a_, payout_b_, sec.y_a.pk.compressed(),
                              sec.y_b.pk.compressed(), ha.view(), hb.view(),
                              static_cast<std::uint32_t>(params_.t_punish));
}

void GeneralizedChannel::sign_state(std::uint32_t state, const channel::StateVec& st) {
  const auto& scheme = env_.scheme();
  StateSecrets sec = state_secrets(state);
  out_script_ = output_script(sec);
  commit_body_ = tx::Transaction{};
  commit_body_.inputs = {{fund_op_}};
  commit_body_.nlocktime = params_.s0 + state;  // state identifier (Sec. 8 trick)
  commit_body_.outputs = {{params_.capacity(), tx::Condition::p2wsh(out_script_)}};
  const Hash256 commit_txid = commit_body_.txid();
  const Hash256 digest = tx::sighash_digest(commit_body_, 0, SighashFlag::kAll);
  // Each party generates its statement (1 exp) and a pre-signature (1 sign).
  crypto::op_counters().exps.fetch_add(2, std::memory_order_relaxed);
  crypto::op_counters().signs.fetch_add(2, std::memory_order_relaxed);
  pre_a_ = crypto::adaptor_pre_sign(main_a_, digest, sec.y_b.pk);  // held by B
  pre_b_ = crypto::adaptor_pre_sign(main_b_, digest, sec.y_a.pk);  // held by A

  split_body_ = tx::Transaction{};
  split_body_.inputs = {{{commit_txid, 0}}};
  split_body_.nlocktime = 0;
  split_body_.outputs = daricch::state_outputs(st, payout_a_, payout_b_);
  const tx::SighashCache sh_split(split_body_);
  split_sig_a_ = tx::sign_input(split_body_, 0, main_a_, scheme, SighashFlag::kAll, &sh_split);
  split_sig_b_ = tx::sign_input(split_body_, 0, main_b_, scheme, SighashFlag::kAll, &sh_split);

  // Each party verifies the counterparty's pre-signature (counted through
  // the op hook, as adaptor verification bypasses the scheme interface)
  // and split signature (Table 3: 2 verifications per party).
  crypto::op_counters().verifies.fetch_add(2, std::memory_order_relaxed);
  if (!crypto::adaptor_pre_verify(main_a_.pk, digest, sec.y_b.pk, pre_a_) ||
      !crypto::adaptor_pre_verify(main_b_.pk, digest, sec.y_a.pk, pre_b_))
    throw std::logic_error("adaptor pre-signature invalid");
  const Hash256 split_digest = sh_split.digest(0, SighashFlag::kAll);
  auto check = [&](const crypto::Point& pk, const Bytes& wire) {
    const auto dec = script::decode_wire_sig(wire, scheme.signature_size());
    if (!dec || !scheme.verify(pk, split_digest, dec->raw))
      throw std::logic_error("counterparty split signature invalid");
  };
  check(main_b_.pk, split_sig_b_);  // A checks B
  check(main_a_.pk, split_sig_a_);  // B checks A

  archive_.push_back({commit_body_, commit_txid, out_script_, pre_a_, pre_b_, st, std::move(sec)});
}

bool GeneralizedChannel::create() {
  fund_script_ = script::multisig_2of2(main_a_.pk.compressed(), main_b_.pk.compressed());
  st_ = {params_.cash_a, params_.cash_b, {}};
  sn_ = 0;
  // Mint only once the opening handshake got through, so an aborted create
  // leaves no funds stranded in the 2-of-2.
  if (send_reliable(PartyId::kA, "gc/create") == 0) return false;
  fund_op_ = env_.ledger().mint(params_.capacity(), tx::Condition::p2wsh(fund_script_));
  sign_state(0, st_);
  open_ = true;
  obs_.opened->inc();
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "generalized", params_.id, {},
                       {obs::Attr::s("phase", "open"), obs::Attr::i("sn", 0)});
  return true;
}

bool GeneralizedChannel::update(const channel::StateVec& next) {
  OBS_SPAN("generalized.update.total");
  if (!open_) throw std::logic_error("channel not open");
  if (next.total() != params_.capacity())
    throw std::invalid_argument("state must preserve capacity");
  if (next.to_a <= 0 || next.to_b <= 0)
    throw std::invalid_argument("both balances must stay positive");
  if (send_or_close(PartyId::kA, "gc/presig") == 0) return false;
  if (send_or_close(PartyId::kB, "gc/split-sig") == 0) return false;
  sign_state(sn_ + 1, next);
  if (send_reliable(PartyId::kA, "gc/revoke") == 0) {
    // Both sides fully signed state sn_+1 and nothing was revoked yet; the
    // live commit/split material already refers to it, so close there —
    // closing at the old sn_ would post a commit the overwritten split can
    // no longer bind to.
    ++sn_;
    st_ = next;
    force_close(PartyId::kA);
    run_until_closed();
    return false;
  }
  const StateSecrets& old = archive_.at(sn_).sec;
  revealed_r_a_.push_back(old.r_a);
  revealed_r_b_.push_back(old.r_b);
  ++sn_;
  st_ = next;
  obs_.updates->inc();
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "generalized", params_.id, {},
                       {obs::Attr::s("phase", "updated"),
                        obs::Attr::i("sn", static_cast<std::int64_t>(sn_))});
  return true;
}

tx::Transaction GeneralizedChannel::assemble_commit(PartyId publisher, std::uint32_t state) const {
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

bool GeneralizedChannel::cooperative_close(PartyId) {
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
  if (send_or_close(PartyId::kA, "gc/close") == 0) return false;
  observe_weight(obs_.weight, close);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "generalized", params_.id, {},
                       {obs::Attr::s("phase", "coop_close_posted")});
  env_.ledger().post(close);
  expected_close_txid_ = close.txid();
  return run_until_closed();
}

void GeneralizedChannel::force_close(PartyId who) {
  if (!open_) return;
  const tx::Transaction cm = assemble_commit(who, sn_);
  obs_.force_close->inc();
  observe_weight(obs_.weight, cm);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kForceClose, "generalized", params_.id,
                       sim::party_name(who),
                       {obs::Attr::i("sn", static_cast<std::int64_t>(sn_)),
                        obs::Attr::i("revoked", 0)});
  env_.ledger().post(cm);
}

void GeneralizedChannel::publish_old_commit(PartyId who, std::uint32_t state) {
  if (state >= archive_.size()) throw std::out_of_range("no archived commit for that state");
  const tx::Transaction cm = assemble_commit(who, state);
  obs_.disputes->inc();
  observe_weight(obs_.weight, cm);
  if (env_.tracer().enabled())
    env_.tracer().emit(env_.now(), obs::EventKind::kForceClose, "generalized", params_.id,
                       sim::party_name(who),
                       {obs::Attr::i("sn", static_cast<std::int64_t>(state)),
                        obs::Attr::i("revoked", state < sn_ ? 1 : 0)});
  env_.ledger().post(cm);
}

void GeneralizedChannel::on_round() {
  if (!open_ || outcome_ != GcOutcome::kNone) return;
  if (!monitor_online_) return;
  auto& ledger = env_.ledger();
  const auto& scheme = env_.scheme();

  if (pending_punish_txid_) {
    if (ledger.is_confirmed(*pending_punish_txid_)) {
      outcome_ = GcOutcome::kPunished;
      open_ = false;
      note_closed(outcome_);
    }
    return;
  }
  if (pending_split_) {
    if (!pending_split_->posted && env_.now() >= pending_split_->post_round) {
      observe_weight(obs_.weight, pending_split_->bound);
      if (env_.tracer().enabled())
        env_.tracer().emit(env_.now(), obs::EventKind::kChannelState, "generalized",
                           params_.id, {}, {obs::Attr::s("phase", "split_posted")});
      ledger.post(pending_split_->bound);
      pending_split_->posted = true;
    } else if (pending_split_->posted && ledger.is_confirmed(pending_split_->txid)) {
      outcome_ = GcOutcome::kNonCollaborative;
      open_ = false;
      note_closed(outcome_);
    }
    return;
  }

  const auto spent_by = ledger.spender_txid(fund_op_);
  if (!spent_by) return;
  const Hash256 id = *spent_by;
  if (expected_close_txid_ && id == *expected_close_txid_) {
    outcome_ = GcOutcome::kCooperative;
    open_ = false;
    note_closed(outcome_);
    return;
  }

  // Identify the published state by txid (bodies are unique per state).
  const ArchivedState* rec = nullptr;
  std::uint32_t state = 0;
  for (std::uint32_t i = 0; i < archive_.size(); ++i) {
    if (archive_[i].commit_txid == id) {
      rec = &archive_[i];
      state = i;
      break;
    }
  }
  if (!rec) return;

  if (state == sn_) {
    // Latest state: schedule the split after the dispute delay.
    const auto conf = ledger.confirmation_round(id);
    tx::Transaction split = split_body_;
    split.witnesses.resize(1);
    split.witnesses[0].stack = {Bytes{}, split_sig_a_, split_sig_b_, Bytes{1}};
    split.witnesses[0].witness_script = out_script_;
    const Hash256 split_txid = split.txid();
    pending_split_ = PendingSplit{std::move(split), split_txid,
                                  (conf ? *conf : env_.now()) + params_.t_punish, false};
    return;
  }

  // Revoked state: identify the publisher by adaptor extraction, then
  // punish with (extracted y, revealed r).
  const auto spender = ledger.spender_of(fund_op_);
  if (spender->witnesses.empty() || spender->witnesses[0].stack.size() != 3) return;
  const StateSecrets& sec = rec->sec;
  const auto raw_a = script::decode_wire_sig(spender->witnesses[0].stack[1],
                                             scheme.signature_size());
  const auto raw_b = script::decode_wire_sig(spender->witnesses[0].stack[2],
                                             scheme.signature_size());
  if (!raw_a || !raw_b) return;

  auto try_punish = [&](PartyId publisher) {
    const bool a_published = publisher == PartyId::kA;
    const crypto::AdaptorPreSig& pre = a_published ? rec->pre_b : rec->pre_a;
    const Bytes& on_chain = a_published ? raw_b->raw : raw_a->raw;
    crypto::Scalar y;
    try {
      y = crypto::adaptor_extract(on_chain, pre);
    } catch (const std::invalid_argument&) {
      return false;
    }
    const crypto::Point& expect = a_published ? sec.y_a.pk : sec.y_b.pk;
    if (!(crypto::Point::mul_gen(y) == expect)) return false;

    const Bytes& r = a_published ? revealed_r_a_.at(state) : revealed_r_b_.at(state);
    tx::Transaction punish;
    punish.inputs = {{{id, 0}}};
    punish.nlocktime = 0;
    punish.outputs = {{params_.capacity(),
                       tx::Condition::p2wpkh(a_published ? payout_b_ : payout_a_)}};
    const tx::SighashCache sh(punish);
    const Bytes sig_y =
        tx::sign_input(punish, 0, crypto::KeyPair{y, expect}, scheme, SighashFlag::kAll, &sh);
    const Bytes sig_main = tx::sign_input(punish, 0, a_published ? main_b_ : main_a_, scheme,
                                          SighashFlag::kAll, &sh);
    punish.witnesses.resize(1);
    // Branch selectors: outer ε (punish side), inner 1 = punish A / ε = punish B.
    punish.witnesses[0].stack = {sig_main, r, sig_y,
                                 a_published ? Bytes{1} : Bytes{}, Bytes{}};
    punish.witnesses[0].witness_script = rec->out_script;
    obs_.punish_posted->inc();
    observe_weight(obs_.weight, punish);
    if (env_.tracer().enabled())
      env_.tracer().emit(env_.now(), obs::EventKind::kPunish, "generalized", params_.id,
                         sim::party_name(a_published ? PartyId::kB : PartyId::kA),
                         {obs::Attr::i("revoked_state", static_cast<std::int64_t>(state)),
                          obs::Attr::i("latest_sn", static_cast<std::int64_t>(sn_))});
    ledger.post(punish);
    pending_punish_txid_ = punish.txid();
    return true;
  };

  if (!try_punish(PartyId::kA)) try_punish(PartyId::kB);
}

std::size_t GeneralizedChannel::party_storage_bytes(PartyId who) const {
  if (!open_) return 0;
  (void)who;
  channel::StorageMeter m;
  m.add_raw(36);
  m.add_tx(commit_body_);
  m.add_tx(split_body_);
  m.add_signature();  // split sig (own copy of counterparty's)
  m.add_raw(33 + 32);  // counterparty pre-signature (R̂, ŝ)
  // Revealed revocation preimages of the counterparty: O(n).
  const auto& revealed = who == PartyId::kA ? revealed_r_b_ : revealed_r_a_;
  for (const Bytes& r : revealed) m.add_raw(r.size());
  m.add_raw(2 * (32 + 33));  // own keys + counterparty pubkey
  return m.bytes();
}

}  // namespace daric::generalized
