#include "src/sim/faults/drill.h"

#include <algorithm>

#include "src/channel/registry.h"
#include "src/crypto/sig_scheme.h"
#include "src/daric/persistence.h"
#include "src/daric/protocol.h"
#include "src/obs/sinks.h"
#include "src/sim/faults/chaos.h"
#include "src/sim/faults/rng.h"
#include "src/store/channel_store.h"

namespace daric::sim::faults {

namespace {

using channel::StateVec;
using channel::Verdict;

constexpr Amount kCashA = 60'000;
constexpr Amount kCashB = 40'000;
constexpr Amount kCapacity = kCashA + kCashB;

/// Sum of unspent P2WPKH outputs paying `pk33`.
Amount credited(const ledger::Ledger& l, BytesView pk33) {
  const tx::Condition cond = tx::Condition::p2wpkh(pk33);
  Amount sum = 0;
  for (const auto& [op, u] : l.utxos().entries()) {
    (void)op;
    if (u.output.cond == cond) sum += u.output.cash;
  }
  return sum;
}

bool conserved(const ledger::Ledger& l) {
  return l.utxos().total_value() + l.fees_total() == l.minted_total();
}

/// Per-update balance, a stateless function of the seed so a replayed
/// schedule drives the identical state sequence.
Amount update_to_a(std::uint64_t seed, std::uint32_t i) {
  return 1'000 + static_cast<Amount>(mix(seed, 0xa0000ull + i) %
                                     static_cast<std::uint64_t>(kCapacity - 2'000));
}

/// Counters come straight from the environment's metrics registry — the
/// same `sim.msg.*` series every tool reads.
void finish_report(DrillReport& rep, Environment& env, const DrillObs& o) {
  obs::Registry& m = env.metrics();
  rep.msg_total = m.counter("sim.msg.sent").value();
  rep.msg_dropped = m.counter("sim.msg.dropped").value();
  rep.msg_delayed = m.counter("sim.msg.delayed").value();
  rep.msg_duplicated = m.counter("sim.msg.duplicated").value();
  if (o.metrics_json) *o.metrics_json = m.snapshot_json();
  if (o.metrics_text) *o.metrics_text = m.summary_text();
  env.tracer().flush_sinks();
}

struct EndgameResult {
  bool punished = false;
  bool funds_lost = false;
  bool closed = false;
};

/// The cheater's best play: publish the revoked commit with confirmation
/// delay 1 (fee priority), keep its own honest monitor off, and bind + post
/// the revoked split the instant the commit's CSV(T) matures. The victim's
/// monitor misses `offline` rounds after the publication and its reaction
/// suffers the worst-case ledger delay Δ.
EndgameResult run_cheat_endgame(Environment& env, daricch::DaricChannel& ch, PartyId cheater,
                                std::uint32_t state, Round offline, Round t_punish,
                                Round delta) {
  daricch::DaricParty& victim = ch.party(other(cheater));
  ch.party(cheater).set_online(false);
  const Hash256 cheat_txid = ch.archived_commits(cheater)[state].txid();
  env.ledger().set_delay_policy([cheat_txid, delta](const tx::Transaction& t, Round d) {
    (void)d;
    return t.txid() == cheat_txid ? 1 : delta;
  });

  const Round t0 = env.now();
  victim.set_online(false);
  ch.publish_old_commit(cheater, state);  // posted at t0, confirms at t0 + 1

  // The sweep must be posted at commit-confirmation + T − Δ so that its
  // adversarial delay Δ lands it exactly when the CSV matures.
  const Round sweep_round = t0 + 1 + t_punish - delta;
  bool swept = false;
  auto maybe_sweep = [&] {
    if (!swept && env.now() == sweep_round) {
      ch.publish_old_split(cheater, state, delta);
      swept = true;
    }
  };

  while (env.now() < t0 + offline) {
    maybe_sweep();
    env.advance_round();
  }
  victim.set_online(true);
  for (int i = 0; i < 400 && victim.channel_open(); ++i) {
    maybe_sweep();
    env.advance_round();
  }

  EndgameResult res;
  res.punished = victim.outcome() == daricch::CloseOutcome::kPunished;
  const auto commit_spender = env.ledger().spender_of({cheat_txid, 0});
  res.funds_lost = commit_spender.has_value() && !res.punished;
  res.closed = !victim.channel_open() || res.funds_lost;
  return res;
}

// ---------------------------------------------------------------------------
// Daric's hook: durable stores, crash recovery, the split-sweeping cheater
// ---------------------------------------------------------------------------

class DaricDrillHook final : public DrillHook {
 public:
  Round close_rounds() const override { return 300; }

  // Every drill runs both parties over a durable channel store so the
  // engine's fsync points fire on every schedule, not only crashing ones.
  void attach(DrillRun& run) override {
    ch_ = &dynamic_cast<daricch::DaricChannel&>(run.ch);
    store_a_.emplace(backend_a_, &run.env.metrics());
    store_b_.emplace(backend_b_, &run.env.metrics());
    ch_->party(PartyId::kA).set_durability_hook(&*store_a_);
    ch_->party(PartyId::kB).set_durability_hook(&*store_b_);
    if (!run.s.crashes.empty()) crash_ = run.s.crashes[0];
    // A mid-update crash only makes sense for a message the victim actually
    // sends (the proposer — always A here — sends 1/3/5, the responder
    // 2/4/6); a mismatched pairing degrades to the post-update crash.
    mid_crash_ = crash_ && crash_->at_msg != 0 &&
                 (crash_->victim == PartyId::kA) == (crash_->at_msg % 2 == 1);
  }

  bool before_update(DrillRun& run, std::uint32_t n) override {
    if (!mid_crash_ || n != crash_->after_update) return false;
    // The victim dies immediately before sending message at_msg of this
    // update: everything after the engine's last fsync is gone, and the
    // counterparty sees only silence and force-closes.
    run.windows_active = false;
    daricch::DaricParty& victim = ch_->party(crash_->victim);
    victim.set_online(false);
    victim.behavior.abort_update_before_msg = static_cast<int>(crash_->at_msg);
    crashed_mid_ = true;
    return true;
  }

  bool stop_after(DrillRun&, std::uint32_t n) override {
    return crash_ && crash_->after_update == n;
  }

  bool end(DrillRun& run) override {
    if (crashed_mid_ || (crash_ && run.rep.updates_done == crash_->after_update)) {
      recover(run);
      return true;
    }
    if (run.s.cheat.enabled && run.s.cheat.state < run.rep.updates_done) {
      cheat(run);
      return true;
    }
    return false;
  }

 private:
  // Crash-recovery off the durable store: the victim's surviving state is
  // exactly what its ChannelStore synced, plus whatever fragment of the
  // in-flight write the disk kept. Recovery truncates that tail and
  // restores a standalone monitor from the last durable snapshot.
  void recover(DrillRun& run) {
    const FaultSchedule& s = run.s;
    DrillReport& rep = run.rep;
    rep.crashed = true;
    run.windows_active = false;
    daricch::DaricParty& victim = ch_->party(crash_->victim);
    victim.set_online(false);  // the crashed process never comes back

    Bytes image = (crash_->victim == PartyId::kA ? backend_a_ : backend_b_).durable_image();
    if (crash_->torn_bytes != 0) {
      if (crash_->corrupt_tail) {
        // Bit rot in the unsynced tail: garbage after the synced prefix.
        for (std::uint32_t k = 0; k < crash_->torn_bytes; ++k)
          image.push_back(static_cast<Byte>(mix(s.seed, 0x7042ull + k)));
      } else {
        // Torn write: a strict prefix of a record that never hit the sync
        // barrier, so recovery must drop it without touching earlier ones.
        const Bytes frame = store::encode_record(store::encode_put(
            store::ChannelStore::channel_key(victim), Bytes(48, 0xab)));
        const std::size_t take = std::min<std::size_t>(crash_->torn_bytes, frame.size() - 1);
        image.insert(image.end(), frame.begin(),
                     frame.begin() + static_cast<std::ptrdiff_t>(take));
      }
    }
    store::MemoryBackend crashed_disk;
    crashed_disk.replace(image);
    store::ChannelStore recovered_store(crashed_disk);
    const Bytes* blob = recovered_store.get(store::ChannelStore::channel_key(victim));
    rep.closed = false;
    if (blob) {
      daricch::RestoredParty restored(run.env, daricch::deserialize_snapshot(*blob));
      RoundHooks hooks(run.env);
      hooks.add([&restored] { restored.on_round(); });
      restored.force_close();
      for (int r = 0; r < 400 && !restored.done(); ++r) run.env.advance_round();
      rep.closed = restored.done();
    }
    const Payout got_stable{run.stable.to_a, run.stable.to_b};
    if (crashed_mid_ && run.attempted) {
      // A mid-update crash may settle at either fully-signed state: the old
      // one (crash before the victim saw the new commit fully signed) or
      // the attempted one (counterparty already promoted it).
      run.audit({got_stable, Payout{run.attempted->to_a, run.attempted->to_b}});
    } else {
      run.audit({got_stable});
    }
    rep.ok = rep.closed && rep.conservation_ok && rep.payout_ok && !s.cheat.expect_loss;
    rep.detail = crashed_mid_ ? "mid-update crash recovery" : "crash-recovery close";
  }

  void cheat(DrillRun& run) {
    const FaultSchedule& s = run.s;
    DrillReport& rep = run.rep;
    rep.cheated = true;
    run.windows_active = false;
    const PartyId cheater = s.cheat.cheater;
    const EndgameResult res = run_cheat_endgame(run.env, *ch_, cheater, s.cheat.state,
                                                s.cheat.victim_offline, s.t_punish, s.delta);
    rep.closed = res.closed;
    rep.punished = res.punished;
    rep.funds_lost = res.funds_lost;
    rep.conservation_ok = conserved(run.env.ledger());
    if (s.cheat.expect_loss) {
      // The crafted boundary schedule: the victim must come out short.
      const Amount victim_credit = credited(run.env.ledger(), ch_->payout_pk(other(cheater)));
      const Amount owed = cheater == PartyId::kA ? run.stable.to_b : run.stable.to_a;
      rep.payout_ok = victim_credit < owed;
      rep.ok = rep.closed && rep.conservation_ok && rep.funds_lost && !rep.punished &&
               rep.payout_ok;
      rep.detail = "expected funds loss beyond T - delta";
    } else {
      run.audit({cheater == PartyId::kA ? Payout{0, kCapacity} : Payout{kCapacity, 0}});
      rep.ok = rep.closed && rep.conservation_ok && rep.payout_ok && rep.punished &&
               !rep.funds_lost;
      rep.detail = "fraud punished";
    }
  }

  daricch::DaricChannel* ch_ = nullptr;
  store::MemoryBackend backend_a_, backend_b_;
  std::optional<store::ChannelStore> store_a_, store_b_;
  std::optional<CrashPoint> crash_;
  bool mid_crash_ = false;
  bool crashed_mid_ = false;
};

}  // namespace

void DrillRun::audit(std::initializer_list<Payout> candidates) {
  const Payout got{credited(env.ledger(), ch.payout_pk(PartyId::kA)),
                   credited(env.ledger(), ch.payout_pk(PartyId::kB))};
  rep.conservation_ok = conserved(env.ledger());
  rep.payout_ok = std::find(candidates.begin(), candidates.end(), got) != candidates.end();
}

std::unique_ptr<DrillHook> daric_drill_hook() { return std::make_unique<DaricDrillHook>(); }

DrillReport run_drill(std::string_view engine, const FaultSchedule& s, const DrillObs& o) {
  const channel::EngineEntry& entry = channel::engine(engine);
  DrillReport rep;
  rep.engine = entry.name;
  rep.seed = s.seed;

  Environment env(s.delta, crypto::schnorr_scheme());
  env.set_message_delay_budget(s.delay_budget);
  ChaosInjector inj(s);
  env.set_fault_injector(&inj);
  env.ledger().set_delay_policy(
      [&inj](const tx::Transaction&, Round d) { return inj.post_delay(0, d); });
  if (o.sink) env.tracer().add_sink(o.sink);

  channel::ChannelParams params;
  params.id = std::string("chaos-") + entry.tag + "-" + std::to_string(s.seed);
  params.cash_a = kCashA;
  params.cash_b = kCashB;
  params.t_punish = s.t_punish;

  // Monitor blackouts run before the parties monitor each round (the hook
  // is registered before the channel's own); endgames that take over the
  // online flags switch them off.
  DrillRun* runp = nullptr;
  RoundHooks windows(env);
  windows.add([&env, &s, &runp] {
    if (!runp || !runp->windows_active) return;
    const Round r = env.now();
    bool on_a = true, on_b = true;
    for (const DowntimeWindow& w : s.downtime) {
      if (r >= w.start && r < w.start + w.length)
        (w.victim == PartyId::kA ? on_a : on_b) = false;
    }
    runp->ch.set_monitors_online(on_a, on_b);
  });

  const std::unique_ptr<channel::Engine> ch = entry.make(env, params);
  DrillRun run{s, env, *ch, rep, StateVec{kCashA, kCashB, {}}, std::nullopt};
  runp = &run;
  const std::unique_ptr<DrillHook> hook = entry.drill_hook ? entry.drill_hook() : nullptr;
  if (hook) hook->attach(run);
  const Round close_rounds = hook ? hook->close_rounds() : 400;

  rep.create_ok = ch->create();
  if (!rep.create_ok) {
    // Abandoned open: no transaction moved any funds (funding sources an
    // engine minted up front still sit where they were minted).
    rep.closed = true;
    rep.conservation_ok = conserved(env.ledger());
    rep.payout_ok = env.ledger().accepted().empty();
    rep.ok = rep.conservation_ok && rep.payout_ok && !s.cheat.expect_loss;
    rep.detail = "create aborted";
    finish_report(rep, env, o);
    return rep;
  }

  bool update_aborted = false;
  for (std::uint32_t i = 0; i < s.updates; ++i) {
    const Amount to_a = update_to_a(s.seed, i);
    const StateVec next{to_a, kCapacity - to_a, {}};
    run.attempted = next;
    const bool crashing = hook && hook->before_update(run, rep.updates_done + 1);
    if (!ch->update(next)) {
      update_aborted = !crashing;
      break;
    }
    run.stable = next;
    run.attempted.reset();
    ++rep.updates_done;
    if (hook && hook->stop_after(run, rep.updates_done)) break;
  }

  const Payout got_stable{run.stable.to_a, run.stable.to_b};
  if (update_aborted) {
    // The retry budget ran out mid-update and one side force-closed; the
    // close may pay either the last stable or the attempted state (both
    // are fully signed by both parties).
    rep.closed = ch->run_until_closed(close_rounds);
    run.audit({got_stable, Payout{run.attempted->to_a, run.attempted->to_b}});
    rep.ok = rep.closed && rep.conservation_ok && rep.payout_ok && !s.cheat.expect_loss;
    rep.detail = "update aborted to force-close";
  } else if (hook && hook->end(run)) {
    // The hook ran its own ending (crash recovery, its own fraud endgame).
  } else if (s.cheat.enabled && s.cheat.state < rep.updates_done) {
    // The cheater publishes a revoked state while every monitor is dark.
    // Punishing engines hand the victim the whole capacity; eltoo can only
    // override the stale update and settle the latest state.
    rep.cheated = true;
    run.windows_active = false;
    ch->set_monitors_online(false, false);
    ch->publish_revoked(s.cheat.cheater, s.cheat.state);
    env.advance_rounds(s.cheat.victim_offline);
    ch->set_monitors_online(true, true);
    rep.closed = ch->run_until_closed(close_rounds);
    const Verdict v = ch->verdict();
    rep.punished = v == Verdict::kPunished;
    const PartyId victim = other(s.cheat.cheater);
    const Payout whole = victim == PartyId::kA ? Payout{kCapacity, 0} : Payout{0, kCapacity};
    run.audit({v == Verdict::kOverridden ? got_stable : whole});
    rep.ok = rep.closed && rep.conservation_ok && rep.payout_ok &&
             (rep.punished || v == Verdict::kOverridden);
    rep.detail = v == Verdict::kOverridden ? "stale update overridden" : "fraud punished";
  } else {
    const bool coop = mix(s.seed, 0xc105eull) % 2 == 0;
    const PartyId initiator = mix(s.seed, 0x1417ull) % 2 == 0 ? PartyId::kA : PartyId::kB;
    bool done;
    if (coop) {
      done = ch->cooperative_close(initiator);
    } else {
      ch->force_close(initiator);
      done = ch->run_until_closed(close_rounds);
    }
    if (!done) done = ch->run_until_closed(close_rounds);
    rep.closed = done;
    run.audit({got_stable});
    rep.ok = rep.closed && rep.conservation_ok && rep.payout_ok && !s.cheat.expect_loss;
    rep.detail = coop ? "cooperative close" : "force close";
  }
  finish_report(rep, env, o);
  return rep;
}

BoundaryReport run_downtime_boundary(Round offline_rounds, Round t_punish, Round delta) {
  BoundaryReport rep;
  rep.offline_rounds = offline_rounds;

  Environment env(delta, crypto::schnorr_scheme());
  channel::ChannelParams params;
  params.id = "boundary-" + std::to_string(t_punish) + "-" + std::to_string(delta) + "-" +
              std::to_string(offline_rounds);
  params.cash_a = kCashA;
  params.cash_b = kCashB;
  params.t_punish = t_punish;

  daricch::DaricChannel ch(env, params);
  if (!ch.create()) return rep;
  if (!ch.update({50'000, 50'000, {}})) return rep;
  if (!ch.update({70'000, 30'000, {}})) return rep;

  // B cheats with revoked state 0 (B held 40k there, 30k now) while A's
  // monitor misses `offline_rounds` rounds after the publication.
  const EndgameResult res =
      run_cheat_endgame(env, ch, PartyId::kB, 0, offline_rounds, t_punish, delta);
  rep.punished = res.punished;
  rep.funds_lost = res.funds_lost;
  rep.closed = res.closed;
  rep.conservation_ok = conserved(env.ledger());
  rep.observed_gap = static_cast<Round>(ch.party(PartyId::kA).max_offline_gap());
  return rep;
}

}  // namespace daric::sim::faults
