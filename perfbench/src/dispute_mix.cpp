// dispute-mix: all six engines in round-robin, each running many short
// lifecycles open -> 1..4 updates -> one ending drawn from the seed with
// fixed shares: cooperative close, honest force close, or a revoked publish
// that must end punished (for eltoo: a stale update that must be
// overridden). In half of the Daric cheats the victim goes offline and a
// store::TowerService, fed a watch entry after every Daric update, punishes.
//
// Open, close and punish dominate here, so ledger validation, the script
// interpreter, tx weight, round processing and the tower's react path do
// most of the work; single verifies (ledger) outweigh batch verifies.
//
// The lifecycles of one block (ten per engine) share one Environment. A
// block then ends and the next starts on a fresh one: the engines register
// round hooks they never remove, so on one Environment for the whole run
// every round would visit every channel ever opened and the cost of a
// lifecycle would grow with the run's length.
#include <memory>
#include <type_traits>

#include "perfbench/src/common.h"
#include "src/cerberus/protocol.h"
#include "src/daric/protocol.h"
#include "src/daric/watchtower.h"
#include "src/eltoo/protocol.h"
#include "src/fppw/protocol.h"
#include "src/generalized/protocol.h"
#include "src/lightning/protocol.h"

namespace perfbench {

using namespace daric;  // NOLINT
using channel::StateVec;
using sim::PartyId;

namespace {

constexpr Round kDelta = 2;
constexpr Round kT = 6;
constexpr Amount kSide = 500'000;
constexpr Amount kCerberusReward = 5'000;
constexpr int kEngines = 6;
constexpr int kPerEngine = 10;  // lifecycles of each engine in one block
constexpr int kBlock = kEngines * kPerEngine;
/// Lifecycles whose costs are reported as exact counts (ten blocks).
constexpr std::uint64_t kPrefix = 10 * kBlock;

constexpr const char* kEngineNames[kEngines] = {"daric",       "lightning", "eltoo",
                                                "generalized", "cerberus",  "fppw"};

enum class End : std::uint8_t { kCoop, kForce, kCheat, kCheatVictimOffline };

struct Plan {
  int engine = 0;
  End end = End::kCoop;
  std::vector<Amount> to_a;  // A's balance after each update
  std::uint32_t cheat_state = 0;
  PartyId actor = PartyId::kA;  // closer, initiator or cheater
};

/// Per-engine timings (reported per layer in traced runs).
struct EngineTimes {
  std::vector<double> create_ms, update_us, coop_ms, force_ms, punish_ms;
};

struct Block {
  explicit Block(TimingScheme& scheme) {
    env = std::make_unique<sim::Environment>(kDelta, scheme);
    tower = std::make_unique<store::TowerService>(tower_disk, &env->metrics());
    hook_tower(*env, *tower);
  }
  std::unique_ptr<sim::Environment> env;
  store::MemoryBackend tower_disk;
  std::unique_ptr<store::TowerService> tower;
  /// Every channel opened in the block (their round hooks point at them).
  std::vector<std::shared_ptr<void>> channels;
};

/// The block's schedule: ten lifecycles per engine with fixed shares of
/// endings (3 cooperative, 3 force, 4 cheats; Daric's cheats half with the
/// victim offline), shuffled by the seed.
std::vector<Plan> plan_block(Rng& rng) {
  std::vector<std::vector<End>> ends(kEngines);
  for (int e = 0; e < kEngines; ++e) {
    ends[e] = {End::kCoop, End::kCoop, End::kCoop, End::kForce, End::kForce, End::kForce,
               End::kCheat, End::kCheat, End::kCheat, End::kCheat};
    if (e == 0) ends[e][8] = ends[e][9] = End::kCheatVictimOffline;
    rng.shuffle(ends[e]);
  }
  std::vector<Plan> plans(kBlock);
  for (int i = 0; i < kBlock; ++i) {
    Plan& p = plans[i];
    p.engine = i % kEngines;
    p.end = ends[p.engine][i / kEngines];
    const auto n = static_cast<int>(rng.range(1, 4));
    for (int k = 0; k < n; ++k) p.to_a.push_back(rng.range(100'000, 900'000));
    p.cheat_state = static_cast<std::uint32_t>(rng.range(0, n - 1));
    p.actor = (rng.next() & 1) != 0 ? PartyId::kA : PartyId::kB;
    // The tower watches for B, so an offline-victim cheat is A's.
    if (p.end == End::kCheatVictimOffline) p.actor = PartyId::kA;
  }
  return plans;
}

/// Engine-specific calls behind the one lifecycle function. kSuffix is the
/// engine's wallet-derivation suffix (payout key `<id><suffix>/A/main`).
template <class Ch>
struct Engine;

template <>
struct Engine<daricch::DaricChannel> {
  static std::shared_ptr<daricch::DaricChannel> make(sim::Environment& env,
                                                     const channel::ChannelParams& p) {
    return std::make_shared<daricch::DaricChannel>(env, p);
  }
  static bool coop(daricch::DaricChannel& c, PartyId who) { return c.cooperative_close(who); }
  static void force(daricch::DaricChannel& c, PartyId who) { c.party(who).force_close(); }
  static void cheat(daricch::DaricChannel& c, PartyId who, std::uint32_t j) {
    c.publish_old_commit(who, j);
  }
  static bool outcome_is(daricch::DaricChannel& c, End end, PartyId victim) {
    using O = daricch::CloseOutcome;
    if (end == End::kCoop || end == End::kForce) {
      const O want = end == End::kCoop ? O::kCooperative : O::kNonCollaborative;
      return c.party(PartyId::kA).outcome() == want && c.party(PartyId::kB).outcome() == want;
    }
    return c.party(victim).outcome() == O::kPunished;
  }
};

template <class Ch, class O>
bool plain_outcome(const Ch& c, End end) {
  switch (end) {
    case End::kCoop: return c.outcome() == O::kCooperative;
    case End::kForce: return c.outcome() == O::kNonCollaborative;
    default: return c.outcome() == O::kPunished;
  }
}

template <>
struct Engine<lightning::LightningChannel> {
  static std::shared_ptr<lightning::LightningChannel> make(sim::Environment& env,
                                                           const channel::ChannelParams& p) {
    return std::make_shared<lightning::LightningChannel>(env, p);
  }
  static bool coop(lightning::LightningChannel& c, PartyId) { return c.cooperative_close(); }
  static void force(lightning::LightningChannel& c, PartyId who) { c.force_close(who); }
  static void cheat(lightning::LightningChannel& c, PartyId who, std::uint32_t j) {
    c.publish_old_commit(who, j);
  }
  static bool outcome_is(lightning::LightningChannel& c, End end, PartyId) {
    return plain_outcome<lightning::LightningChannel, lightning::LnOutcome>(c, end);
  }
};

template <>
struct Engine<eltoo::EltooChannel> {
  static constexpr const char* kSuffix = "/eltoo";
  static std::shared_ptr<eltoo::EltooChannel> make(sim::Environment& env,
                                                   const channel::ChannelParams& p) {
    return std::make_shared<eltoo::EltooChannel>(env, p);
  }
  static bool coop(eltoo::EltooChannel& c, PartyId) { return c.cooperative_close(); }
  static void force(eltoo::EltooChannel& c, PartyId who) { c.force_close(who); }
  static void cheat(eltoo::EltooChannel& c, PartyId who, std::uint32_t j) {
    c.publish_old_update(who, j);
  }
  /// eltoo has no punishment: a stale update must be overridden and the
  /// latest state settled.
  static bool outcome_is(eltoo::EltooChannel& c, End end, PartyId) {
    if (end == End::kCoop || end == End::kForce) return c.closed();
    return c.settled_state().has_value() && *c.settled_state() == c.state_number();
  }
};

template <>
struct Engine<generalized::GeneralizedChannel> {
  static constexpr const char* kSuffix = "/gc";
  static std::shared_ptr<generalized::GeneralizedChannel> make(sim::Environment& env,
                                                               const channel::ChannelParams& p) {
    return std::make_shared<generalized::GeneralizedChannel>(env, p);
  }
  static bool coop(generalized::GeneralizedChannel& c, PartyId) { return c.cooperative_close(); }
  static void force(generalized::GeneralizedChannel& c, PartyId who) { c.force_close(who); }
  static void cheat(generalized::GeneralizedChannel& c, PartyId who, std::uint32_t j) {
    c.publish_old_commit(who, j);
  }
  static bool outcome_is(generalized::GeneralizedChannel& c, End end, PartyId) {
    return plain_outcome<generalized::GeneralizedChannel, generalized::GcOutcome>(c, end);
  }
};

template <>
struct Engine<cerberus::CerberusChannel> {
  static constexpr const char* kSuffix = "/cb";
  static std::shared_ptr<cerberus::CerberusChannel> make(sim::Environment& env,
                                                         const channel::ChannelParams& p) {
    return std::make_shared<cerberus::CerberusChannel>(env, p, kCerberusReward);
  }
  static bool coop(cerberus::CerberusChannel& c, PartyId) { return c.cooperative_close(); }
  static void force(cerberus::CerberusChannel& c, PartyId who) { c.force_close(who); }
  static void cheat(cerberus::CerberusChannel& c, PartyId who, std::uint32_t j) {
    c.publish_old_commit(who, j);
  }
  static bool outcome_is(cerberus::CerberusChannel& c, End end, PartyId) {
    return plain_outcome<cerberus::CerberusChannel, cerberus::CbOutcome>(c, end);
  }
};

template <>
struct Engine<fppw::FppwChannel> {
  static constexpr const char* kSuffix = "/fppw";
  static std::shared_ptr<fppw::FppwChannel> make(sim::Environment& env,
                                                 const channel::ChannelParams& p) {
    return std::make_shared<fppw::FppwChannel>(env, p);
  }
  static bool coop(fppw::FppwChannel& c, PartyId) { return c.cooperative_close(); }
  static void force(fppw::FppwChannel& c, PartyId who) { c.force_close(who); }
  static void cheat(fppw::FppwChannel& c, PartyId who, std::uint32_t j) {
    c.publish_old_commit(who, j);
  }
  static bool outcome_is(fppw::FppwChannel& c, End end, PartyId) {
    return plain_outcome<fppw::FppwChannel, fppw::FppwOutcome>(c, end);
  }
};

struct Run {
  Run(const PhaseConfig& c, PhaseResult& res, TimingScheme& s) : cfg(c), r(res), scheme(s) {}
  const PhaseConfig& cfg;
  PhaseResult& r;
  Loop* loop = nullptr;  // null for warm-up lifecycles, which are not recorded
  TimingScheme& scheme;
  Replay replay;
  EngineTimes times[kEngines];
  std::uint64_t updates = 0, update_msgs = 0, rounds = 0;
  // summed over the blocks of the run
  std::uint64_t reactions = 0, confirmed = 0, inputs = 0, rejected = 0;
  // exact costs over the fixed prefix
  std::uint64_t prefix_wu = 0, prefix_msgs = 0, prefix_rounds = 0;
  std::size_t storage_max = 0, first_storage = 0;
  double tower_bytes = 0;
  Round worst_gap = 0;
};

/// One lifecycle, timed from construction to resolution, then checked.
template <class Ch>
void lifecycle(Run& run, Block& b, const Plan& plan, std::uint64_t seq) {
  using E = Engine<Ch>;
  constexpr bool kDaric = std::is_same_v<Ch, daricch::DaricChannel>;
  sim::Environment& env = *b.env;
  ledger::Ledger& l = env.ledger();
  obs::Counter& sent = env.metrics().counter("sim.msg.sent");
  obs::Counter& rounds = env.metrics().counter("sim.rounds");
  Probes& p = probes();
  PhaseResult& r = run.r;
  EngineTimes& et = run.times[plan.engine];
  const bool traced = run.cfg.traced;

  channel::ChannelParams params;
  params.id = std::string("dm/") + kEngineNames[plan.engine] + "/" + std::to_string(seq);
  params.cash_a = kSide;
  params.cash_b = kSide;
  params.t_punish = kT;
  const std::size_t from = l.accepted().size();
  const std::uint64_t rounds0 = rounds.value();
  const std::uint64_t sent0 = sent.value();
  r.checks.begin();

  p.in_op = true;
  const std::int64_t t0 = now_ns();
  std::shared_ptr<Ch> chp;
  bool ok;
  {
    ScopedSpan span(Span::kCreate);
    chp = E::make(env, params);
    if (traced) run.replay.remember(l);  // Daric mints its funding sources here
    ok = chp->create();
  }
  Ch& ch = *chp;
  b.channels.push_back(chp);
  if (traced) {
    et.create_ms.push_back((now_ns() - t0) / 1e6);
    run.replay.remember(l);  // the baselines mint their funding output in create()
  }
  r.checks.expect(ok, "create failed");

  StateVec st{kSide, kSide, {}};
  std::uint32_t sn = 0;
  for (const Amount to_a : plan.to_a) {
    st = {to_a, 2 * kSide - to_a, {}};
    const std::uint64_t s0 = sent.value();
    const std::int64_t u0 = now_ns();
    {
      ScopedSpan span(Span::kUpdate);
      if (kDaric && traced) p.begin_steps(u0);
      ok = ch.update(st);
    }
    const std::int64_t u1 = now_ns();
    if (kDaric && traced) p.end_steps(u1);
    if (traced) et.update_us.push_back((u1 - u0) / 1e3);
    ++run.updates;
    run.update_msgs += sent.value() - s0;
    ++sn;
    r.checks.expect(ok, "update() returned false");
    if constexpr (kDaric) {
      r.checks.expect(ch.party(PartyId::kA).state_number() == sn &&
                          ch.party(PartyId::kB).state_number() == sn,
                      "parties disagree on the state number");
      r.checks.expect(ch.party(PartyId::kA).state() == st && ch.party(PartyId::kB).state() == st,
                      "parties disagree on balances");
      for (const PartyId who : {PartyId::kA, PartyId::kB}) {
        const std::size_t bytes = ch.party(who).storage_bytes();
        if (run.first_storage == 0) run.first_storage = bytes;
        r.checks.expect(bytes == run.first_storage, "party storage changed between updates");
        run.storage_max = std::max(run.storage_max, bytes);
      }
      ScopedSpan span(Span::kWatch);
      timed_watch(*b.tower, store::make_watch_entry(
                                ch.params(), PartyId::kB, ch.funding_outpoint(),
                                ch.party(PartyId::kA).pub(), ch.party(PartyId::kB).pub(),
                                daricch::make_watchtower_package(ch.party(PartyId::kB))));
      run.tower_bytes = std::max(run.tower_bytes,
                                 static_cast<double>(b.tower->live_record_bytes()) /
                                     static_cast<double>(b.tower->channels()));
    }
  }

  const PartyId victim = plan.actor == PartyId::kA ? PartyId::kB : PartyId::kA;
  const std::int64_t c0 = now_ns();
  Round publish_round = 0;
  Hash256 cheat_txid{};
  {
    ScopedSpan span(Span::kClose);
    switch (plan.end) {
      case End::kCoop:
        ok = E::coop(ch, plan.actor) || ch.run_until_closed();
        break;
      case End::kForce:
        E::force(ch, plan.actor);
        ok = ch.run_until_closed();
        break;
      case End::kCheat:
      case End::kCheatVictimOffline:
        publish_round = env.now();
        if constexpr (kDaric) {
          cheat_txid = ch.archived_commits(plan.actor)[plan.cheat_state].txid();
          if (plan.end == End::kCheatVictimOffline) {
            // The victim's own monitor misses T rounds: only the tower can
            // punish in time.
            ch.party(victim).set_online(false);
            E::cheat(ch, plan.actor, plan.cheat_state);
            env.advance_rounds(kT);
            ch.party(victim).set_online(true);
          } else {
            E::cheat(ch, plan.actor, plan.cheat_state);
          }
        } else {
          E::cheat(ch, plan.actor, plan.cheat_state);
        }
        ok = ch.run_until_closed();
        break;
    }
  }
  const std::int64_t t1 = now_ns();
  p.in_op = false;
  if (run.loop)
    run.loop->record(t0, t1,
                     (plan.engine * 4 + static_cast<int>(plan.end)) * 8 +
                         static_cast<int>(plan.to_a.size()));
  (plan.end == End::kCoop    ? et.coop_ms
   : plan.end == End::kForce ? et.force_ms
                             : et.punish_ms)
      .push_back((t1 - c0) / 1e6);

  // Output checks: the ending resolved as planned and paid what it owes.
  r.checks.expect(ok && E::outcome_is(ch, plan.end, victim),
                  std::string(kEngineNames[plan.engine]) + ": lifecycle did not resolve as planned");
  Bytes pk_a, pk_b;
  if constexpr (kDaric) {
    pk_a = ch.party(PartyId::kA).pub().main;
    pk_b = ch.party(PartyId::kB).pub().main;
  } else if constexpr (std::is_same_v<Ch, lightning::LightningChannel>) {
    pk_a = Bytes(ch.payout_pk(PartyId::kA).begin(), ch.payout_pk(PartyId::kA).end());
    pk_b = Bytes(ch.payout_pk(PartyId::kB).begin(), ch.payout_pk(PartyId::kB).end());
  } else {
    pk_a = main_payout_key(params.id + E::kSuffix, "A");
    pk_b = main_payout_key(params.id + E::kSuffix, "B");
  }
  Amount want_a = st.to_a, want_b = st.to_b;
  const bool punishes = plan.end != End::kCoop && plan.end != End::kForce &&
                        !std::is_same_v<Ch, eltoo::EltooChannel>;
  if (punishes) {
    // The victim takes the whole capacity (Cerberus pays its tower a reward).
    const Amount take =
        2 * kSide - (std::is_same_v<Ch, cerberus::CerberusChannel> ? kCerberusReward : 0);
    want_a = victim == PartyId::kA ? take : 0;
    want_b = victim == PartyId::kB ? take : 0;
  }
  if constexpr (std::is_same_v<Ch, cerberus::CerberusChannel>) {
    if (plan.end == End::kForce) {
      // Cerberus sweeps only the closer's delayed output; the other side's
      // balance stays in the commit's second output, payable to it.
      const auto commit = l.spender_of(ch.funding_outpoint());
      const Amount owed = plan.actor == PartyId::kA ? st.to_b : st.to_a;
      r.checks.expect(commit && commit->outputs.size() == 2 &&
                          commit->outputs[1].cash == owed && l.is_unspent({commit->txid(), 1}),
                      "cerberus: force close did not leave the counterparty its balance");
      (plan.actor == PartyId::kA ? want_b : want_a) = 0;
    }
  }
  r.checks.expect(credited(l, from, pk_a) == want_a && credited(l, from, pk_b) == want_b,
                  std::string(kEngineNames[plan.engine]) + ": payout differs from what is owed");
  r.checks.expect(conserved(l), "ledger value not conserved");
  if constexpr (kDaric) {
    if (punishes) {
      const auto punish = l.spender_of({cheat_txid, 0});
      const auto confirmed = punish ? l.confirmation_round(punish->txid()) : std::nullopt;
      r.checks.expect(confirmed.has_value(), "revoked commit was not punished");
      if (confirmed) {
        const Round gap = *confirmed - publish_round;
        run.worst_gap = std::max(run.worst_gap, gap);
        r.checks.expect(gap <= kT - kDelta, "punishment confirmed later than T - delta");
      }
    }
  }
  r.checks.end();
  run.rounds += rounds.value() - rounds0;
  if (++r.ops <= kPrefix) {
    run.prefix_wu += confirmed_weight(l, from);
    run.prefix_msgs += sent.value() - sent0;
    run.prefix_rounds += rounds.value() - rounds0;
  }
}

/// Books a finished block's ledger and tower totals (and replays its
/// confirmed transactions in traced runs).
void close_block(Run& run, Block& b) {
  const ledger::Ledger& l = b.env->ledger();
  if (run.cfg.traced) {
    ScopedSpan span(Span::kReplay);
    run.replay.run(l, run.scheme, run.r.checks);
    run.replay.forget();
  }
  run.reactions += b.tower->reactions();
  run.confirmed += l.accepted().size();
  for (const auto& a : l.accepted()) run.inputs += a.tx.inputs.size();
  run.rejected += b.env->metrics().counter("ledger.tx.rejected").value();
}

void run_one(Run& run, Block& b, const Plan& plan, std::uint64_t seq) {
  switch (plan.engine) {
    case 0: lifecycle<daricch::DaricChannel>(run, b, plan, seq); break;
    case 1: lifecycle<lightning::LightningChannel>(run, b, plan, seq); break;
    case 2: lifecycle<eltoo::EltooChannel>(run, b, plan, seq); break;
    case 3: lifecycle<generalized::GeneralizedChannel>(run, b, plan, seq); break;
    case 4: lifecycle<cerberus::CerberusChannel>(run, b, plan, seq); break;
    case 5: lifecycle<fppw::FppwChannel>(run, b, plan, seq); break;
  }
}

}  // namespace

PhaseResult run_dispute_mix(const PhaseConfig& cfg) {
  PhaseResult r;
  r.op_name = "lifecycle";
  TimingScheme scheme{crypto::schnorr_scheme()};
  StepClock steps;
  // Set-up: a fresh Environment and tower, warmed by one cooperative
  // lifecycle of each engine (the engines' lazy tables and the process's
  // generator tables). Warm-up lifecycles are neither timed nor counted.
  const auto setup = [&cfg, &scheme] {
    PhaseConfig warm_cfg = cfg;
    warm_cfg.traced = false;
    Block warm(scheme);
    PhaseResult scratch;
    Run warm_run{warm_cfg, scratch, scheme};
    Rng warm_rng(cfg.seed + 1);
    std::vector<Plan> plans = plan_block(warm_rng);
    for (int e = 0; e < kEngines; ++e) {
      plans[e].end = End::kCoop;
      run_one(warm_run, warm, plans[e], e);
    }
    if (scratch.checks.failed() != 0) throw std::runtime_error("dispute-mix: warm-up failed");
  };
  setup();

  Run run{cfg, r, scheme};
  Rng rng(cfg.seed);
  std::unique_ptr<Block> block;
  std::vector<Plan> plans;
  begin_tracing(cfg.traced);
  Loop loop(r, cfg, kPrefix, setup);
  run.loop = &loop;
  while (loop.next()) {
    const int i = static_cast<int>(r.ops % kBlock);
    if (i == 0) {
      if (block) close_block(run, *block);
      block = std::make_unique<Block>(scheme);
      if (cfg.traced) block->env->set_fault_injector(&steps);
      plans = plan_block(rng);
    }
    run_one(run, *block, plans[i], r.ops);
    if (r.ops == kPrefix) r.peak_rss_mb = peak_rss_mb();
  }
  close_block(run, *block);
  probes().tracing = false;

  r.wu_per_lifecycle = static_cast<double>(run.prefix_wu) / kPrefix;
  r.party_storage_b = static_cast<double>(run.storage_max);
  r.tower_b_per_channel = run.tower_bytes;
  r.counts = {{"onchain_wu_per_lifecycle", r.wu_per_lifecycle},
              {"party_storage_B", r.party_storage_b},
              {"tower_B_per_channel", r.tower_b_per_channel},
              {"messages", static_cast<double>(run.prefix_msgs)},
              {"rounds", static_cast<double>(run.prefix_rounds)},
              {"punish_gap_rounds", static_cast<double>(run.worst_gap)}};

  r.named = {{"onchain_wu_per_lifecycle", {r.wu_per_lifecycle, "wu"}},
             {"punish_gap_rounds", {static_cast<double>(run.worst_gap), "rounds"}},
             {"party_storage_B", {r.party_storage_b, "B"}},
             {"tower_B_per_channel", {r.tower_b_per_channel, "B"}}};

  std::vector<double> punish_ms;
  for (const EngineTimes& et : run.times)
    punish_ms.insert(punish_ms.end(), et.punish_ms.begin(), et.punish_ms.end());
  r.named.push_back({"punish_p50_ms", {percentile(punish_ms, 0.50), "ms"}});
  r.named.push_back({"punish_p95_ms", {percentile(punish_ms, 0.95), "ms"}});
  if (cfg.traced) {
    double wall = 0;
    for (const double v : r.op_ns) wall += v;
    common_layers(r, wall, run.updates);
    tower_layers(r, run.reactions);
    for (int e = 0; e < kEngines; ++e) {
      const EngineTimes& et = run.times[e];
      const std::string n = kEngineNames[e];
      r.layer[n + ".create_ms"] = {mean(et.create_ms), "ms"};
      r.layer[n + ".update_us"] = {mean(et.update_us), "us"};
      r.layer[n + ".coop_close_ms"] = {mean(et.coop_ms), "ms"};
      r.layer[n + ".force_close_ms"] = {mean(et.force_ms), "ms"};
      r.layer[n + ".punish_ms"] = {mean(et.punish_ms), "ms"};
    }
    r.layer["daric.punish_gap_rounds"] = {static_cast<double>(run.worst_gap), "rounds"};
    const double ops = static_cast<double>(r.ops);
    r.layer["sim.msg_per_update"] = {
        static_cast<double>(run.update_msgs) / static_cast<double>(run.updates), "count"};
    r.layer["sim.rounds_per_lifecycle"] = {static_cast<double>(run.rounds) / ops, "rounds"};
    replay_layers(r, run.replay, ops, run.confirmed, run.inputs, run.rejected);
  }
  return r;
}

}  // namespace perfbench
