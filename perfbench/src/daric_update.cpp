// daric-update: a few long-lived Daric channels on one Environment, each
// driven through thousands of updates, then closed cooperatively.
//
// This is the paper's unlimited-lifetime claim: an update must stay cheap
// and neither party's storage may grow with the number of updates. Crypto,
// tx sighash/serialization and the Daric skeleton do almost all the work;
// ledger, script and store are nearly idle.
#include <map>
#include <memory>

#include "perfbench/src/common.h"
#include "src/channel/htlc.h"
#include "src/daric/protocol.h"
#include "src/daric/watchtower.h"

namespace perfbench {

using namespace daric;  // NOLINT
using channel::StateVec;
using sim::PartyId;

namespace {

constexpr Round kDelta = 2;
constexpr Round kT = 6;
constexpr int kChannels = 4;
constexpr Amount kSide = 500'000;
/// Updates whose costs are reported as exact counts (every run does them).
constexpr std::uint64_t kPrefix = 2000;
constexpr int kMaxHtlcs = 16;

struct World {
  explicit World(std::vector<double>& create_ms) {
    env = std::make_unique<sim::Environment>(kDelta, scheme);
    for (int c = 0; c < kChannels; ++c) {
      channel::ChannelParams params;
      params.id = "du/" + std::to_string(c);
      params.cash_a = kSide;
      params.cash_b = kSide;
      params.t_punish = kT;
      const std::int64_t t = now_ns();
      chans.push_back(std::make_unique<daricch::DaricChannel>(*env, params));
      replay.remember(env->ledger());  // the funding sources minted above
      if (!chans.back()->create()) throw std::runtime_error("daric-update: create failed");
      create_ms.push_back((now_ns() - t) / 1e6);
      base_a.push_back(kSide);
    }
    tower = std::make_unique<store::TowerService>(tower_disk, &env->metrics());
    hook_tower(*env, *tower);
    for (int k = 0; k < kMaxHtlcs; ++k)
      hashes.push_back(channel::make_htlc_secret("du/h" + std::to_string(k)).payment_hash);
  }

  TimingScheme scheme{crypto::schnorr_scheme()};
  StepClock steps;
  std::unique_ptr<sim::Environment> env;
  std::vector<std::unique_ptr<daricch::DaricChannel>> chans;
  std::vector<Amount> base_a;  // A's balance before HTLC deductions
  std::vector<Bytes> hashes;
  store::MemoryBackend tower_disk;
  std::unique_ptr<store::TowerService> tower;
  Replay replay;
};

/// Next state of channel `c`: balances shift every update and a seeded
/// 1..16 HTLCs ride on one update in four.
StateVec next_state(World& w, int c, Rng& rng) {
  Amount& base = w.base_a[c];
  base = std::clamp<Amount>(base + rng.range(-20'000, 20'000), 200'000, 800'000);
  StateVec st{base, 2 * kSide - base, {}};
  if (rng.next() % 4 == 0) {
    const auto m = static_cast<int>(rng.range(1, kMaxHtlcs));
    for (int k = 0; k < m; ++k) {
      const Amount cash = rng.range(1'000, 5'000);
      const bool by_a = (rng.next() & 1) != 0;
      (by_a ? st.to_a : st.to_b) -= cash;
      st.htlcs.push_back({cash, w.hashes[k], by_a, 40});
    }
  }
  return st;
}

}  // namespace

PhaseResult run_daric_update(const PhaseConfig& cfg) {
  PhaseResult r;
  r.op_name = "update";
  r.op_unit = "us";
  std::vector<double> create_ms;
  auto w = std::make_unique<World>(create_ms);
  if (cfg.traced) w->env->set_fault_injector(&w->steps);
  obs::Counter& sent = w->env->metrics().counter("sim.msg.sent");
  const std::uint64_t sent0 = sent.value();

  Rng rng(cfg.seed);
  Probes& p = probes();
  // Party storage after an update with m HTLCs, first seen; every later
  // update with m HTLCs must leave exactly the same footprint.
  std::map<std::pair<int, std::size_t>, std::size_t> storage_at;
  std::size_t storage_max = 0;
  double growth = 0;  // largest excess over the first footprint for the same HTLC count
  std::vector<std::uint32_t> sn(kChannels, 0);

  begin_tracing(cfg.traced);
  Loop loop(r, cfg, kPrefix, [] {
    std::vector<double> ignored;
    World scratch(ignored);
  });
  while (loop.next()) {
    const int c = static_cast<int>(r.ops % kChannels);
    daricch::DaricChannel& ch = *w->chans[c];
    const StateVec next = next_state(*w, c, rng);
    r.checks.begin();
    bool ok;
    std::int64_t t0, t1;
    {
      ScopedSpan span(Span::kUpdate);
      p.in_op = true;
      t0 = now_ns();
      if (cfg.traced) p.begin_steps(t0);
      ok = ch.update(next);
      t1 = now_ns();
      p.in_op = false;
      if (cfg.traced) p.end_steps(t1);
    }
    loop.record(t0, t1, static_cast<int>(next.htlcs.size()));
    ++sn[c];
    const daricch::DaricParty& a = ch.party(PartyId::kA);
    const daricch::DaricParty& b = ch.party(PartyId::kB);
    r.checks.expect(ok, "update() returned false");
    r.checks.expect(a.state_number() == sn[c] && b.state_number() == sn[c],
                    "parties disagree on the state number");
    r.checks.expect(a.state() == next && b.state() == next, "parties disagree on balances");
    for (const daricch::DaricParty* party : {&a, &b}) {
      const std::size_t bytes = party->storage_bytes();
      const auto it =
          storage_at.try_emplace({static_cast<int>(party->id()), next.htlcs.size()}, bytes).first;
      r.checks.expect(it->second == bytes, "party storage grew with the update count");
      growth = std::max(growth, static_cast<double>(bytes) - static_cast<double>(it->second));
      if (r.ops < kPrefix) storage_max = std::max(storage_max, bytes);
    }
    r.checks.end();
    if (++r.ops == kPrefix) {
      r.counts["messages"] = static_cast<double>(sent.value() - sent0);
      r.counts["party_storage_B"] = static_cast<double>(storage_max);
      r.peak_rss_mb = peak_rss_mb();
    }
  }
  const std::uint64_t loop_msgs = sent.value() - sent0;

  // Wind down: clear HTLCs, hand the tower each channel's package, close.
  std::vector<double> close_ms;
  ledger::Ledger& l = w->env->ledger();
  for (int c = 0; c < kChannels; ++c) {
    daricch::DaricChannel& ch = *w->chans[c];
    const StateVec last{w->base_a[c], 2 * kSide - w->base_a[c], {}};
    r.checks.single(ch.update(last), "clearing update failed");
    timed_watch(*w->tower,
                store::make_watch_entry(ch.params(), PartyId::kB, ch.funding_outpoint(),
                                        ch.party(PartyId::kA).pub(), ch.party(PartyId::kB).pub(),
                                        daricch::make_watchtower_package(ch.party(PartyId::kB))));
    r.tower_b_per_channel =
        std::max(r.tower_b_per_channel, static_cast<double>(w->tower->live_record_bytes()) /
                                            static_cast<double>(w->tower->channels()));
    const std::size_t from = l.accepted().size();
    const std::int64_t t = now_ns();
    bool closed;
    {
      ScopedSpan span(Span::kClose);
      closed = ch.cooperative_close(PartyId::kA);
    }
    close_ms.push_back((now_ns() - t) / 1e6);
    r.checks.begin();
    r.checks.expect(closed && ch.party(PartyId::kA).outcome() == daricch::CloseOutcome::kCooperative &&
                        ch.party(PartyId::kB).outcome() == daricch::CloseOutcome::kCooperative,
                    "cooperative close did not resolve");
    r.checks.expect(credited(l, from, ch.party(PartyId::kA).pub().main) == last.to_a &&
                        credited(l, from, ch.party(PartyId::kB).pub().main) == last.to_b,
                    "cooperative close did not pay the latest balances");
    r.checks.end();
  }
  p.tracing = false;
  r.checks.single(conserved(l), "ledger value not conserved");
  r.wu_per_lifecycle = static_cast<double>(confirmed_weight(l, 0)) / kChannels;
  r.party_storage_b = r.counts["party_storage_B"];
  r.counts["onchain_wu_per_lifecycle"] = r.wu_per_lifecycle;
  r.counts["tower_B_per_channel"] = r.tower_b_per_channel;
  r.counts["storage_growth_B"] = growth;

  r.named = {{"party_storage_B", {r.party_storage_b, "B"}}};

  if (cfg.traced) {
    double wall = 0;
    for (const double v : r.op_ns) wall += v;
    common_layers(r, wall, r.ops);
    tower_layers(r, w->tower->reactions());
    r.layer["daric.create_ms"] = {mean(create_ms), "ms"};
    r.layer["daric.update_us"] = {mean(r.op_ns) / 1e3, "us"};
    r.layer["daric.coop_close_ms"] = {mean(close_ms), "ms"};
    r.absent["daric.force_close_ms"] = "daric-update ends every channel cooperatively";
    r.absent["daric.punish_ms"] = "daric-update has no cheats";
    r.absent["daric.punish_gap_rounds"] = "daric-update has no cheats";
    r.layer["sim.msg_per_update"] = {static_cast<double>(loop_msgs) / static_cast<double>(r.ops),
                                     "count"};
    r.absent["sim.rounds_per_lifecycle"] =
        "channels live for the whole run, so a lifecycle's rounds depend on its length";
    ScopedSpan span(Span::kReplay);
    w->replay.run(l, w->scheme, r.checks);
    std::uint64_t inputs = 0;
    for (const auto& a : l.accepted()) inputs += a.tx.inputs.size();
    replay_layers(r, w->replay, kChannels, l.accepted().size(), inputs,
                  w->env->metrics().counter("ledger.tx.rejected").value());
  }
  return r;
}

}  // namespace perfbench
