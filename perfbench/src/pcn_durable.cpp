// pcn-durable: a pcn::PaymentNetwork ring with chords of Daric channels
// carrying seeded multi-hop payments between random pairs. Every node
// journals its parties through a store::ChannelStore (its DurabilityHook);
// after each payment the channels it touched refresh their watch entry in
// one shared store::TowerService. Both stores sit on in-memory backends:
// sync() marks the durable watermark and no device flush is timed.
//
// This drives the Daric update differently from daric-update: each hop adds
// and then settles an HTLC and every obligation point writes a snapshot,
// so pcn routing, store persist/compaction and the tower's watch path do
// real work while the ledger stays idle. Amounts are small against
// capacity, so a routing failure comes from the code, not a drained edge.
#include <memory>
#include <set>

#include "perfbench/src/common.h"
#include "src/daric/watchtower.h"
#include "src/obs/span.h"
#include "src/pcn/network.h"

namespace perfbench {

using namespace daric;  // NOLINT
using sim::PartyId;

namespace {

constexpr Round kDelta = 2;
constexpr int kNodes = 24;
constexpr Amount kSide = 500'000;
constexpr Amount kMaxPayment = 2'000;
/// Payments whose costs are reported as exact counts (every run makes them).
constexpr std::uint64_t kPrefix = 300;

std::string node(int i) { return "n" + std::to_string(i); }

struct World {
  explicit World(std::vector<double>& create_ms) {
    env = std::make_unique<sim::Environment>(kDelta, scheme);
    net = std::make_unique<pcn::PaymentNetwork>(*env);
    for (int i = 0; i < kNodes; ++i) {
      net->add_node(node(i));
      disks.push_back(std::make_unique<CountingBackend>());
      stores.push_back(std::make_unique<store::ChannelStore>(*disks.back(), &env->metrics()));
      hooks.push_back(std::make_unique<TimedStore>(
          *stores.back(), [this](const daricch::DaricParty& p) {
            touched.insert(channel_of.at(p.params().id));
          }));
    }
    // A ring, plus a chord every third node.
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < kNodes; ++i) edges.push_back({i, (i + 1) % kNodes});
    for (int i = 0; i + 3 < kNodes; i += 3) edges.push_back({i, i + 3});
    for (const auto& [u, v] : edges) {
      const std::int64_t t = now_ns();
      const std::size_t idx = net->open_channel(node(u), node(v), kSide, kSide);
      create_ms.push_back((now_ns() - t) / 1e6);
      daricch::DaricChannel& ch = net->channel(idx);
      channel_of[ch.params().id] = idx;
      ch.party(PartyId::kA).set_durability_hook(hooks[u].get());
      ch.party(PartyId::kB).set_durability_hook(hooks[v].get());
      // Warm-up update: journals the first snapshot and gives the tower a
      // package to watch (one exists from state 1 on).
      if (!ch.update(ch.party(PartyId::kA).state()))
        throw std::runtime_error("pcn-durable: warm-up update failed");
    }
    tower = std::make_unique<store::TowerService>(tower_disk, &env->metrics());
    tower->begin_bulk_load();
    for (std::size_t i = 0; i < net->channel_count(); ++i) tower->watch(entry(i));
    tower->end_bulk_load();
    hook_tower(*env, *tower);
    touched.clear();
  }

  store::WatchEntry entry(std::size_t i) {
    daricch::DaricChannel& ch = net->channel(i);
    return store::make_watch_entry(ch.params(), PartyId::kB, ch.funding_outpoint(),
                                   ch.party(PartyId::kA).pub(), ch.party(PartyId::kB).pub(),
                                   daricch::make_watchtower_package(ch.party(PartyId::kB)));
  }

  TimingScheme scheme{crypto::schnorr_scheme()};
  std::unique_ptr<sim::Environment> env;
  std::vector<std::unique_ptr<CountingBackend>> disks;  // one per node
  std::vector<std::unique_ptr<store::ChannelStore>> stores;
  std::vector<std::unique_ptr<TimedStore>> hooks;
  store::MemoryBackend tower_disk;
  std::unique_ptr<store::TowerService> tower;
  std::map<std::string, std::size_t> channel_of;  // channel id -> index
  std::set<std::size_t> touched;                  // channels a payment persisted
  Replay replay;
  std::unique_ptr<pcn::PaymentNetwork> net;  // last: its channels use the hooks
};

}  // namespace

PhaseResult run_pcn_durable(const PhaseConfig& cfg) {
  PhaseResult r;
  r.op_name = "payment";
  std::vector<double> create_ms;
  auto w = std::make_unique<World>(create_ms);
  pcn::PaymentNetwork& net = *w->net;
  const std::size_t channels = net.channel_count();
  obs::Registry& reg = w->env->metrics();
  obs::Counter& sent = reg.counter("sim.msg.sent");
  obs::Counter& locked = reg.counter("pcn.htlc.locked");
  obs::Counter& rolled_back = reg.counter("pcn.htlc.rolled_back");
  const std::uint64_t sent0 = sent.value(), locked0 = locked.value(),
                      rolled0 = rolled_back.value();
  Amount total = 0;
  for (int i = 0; i < kNodes; ++i) total += net.balance(node(i));

  Rng rng(cfg.seed);
  Probes& p = probes();
  std::vector<double> begin_ms, settle_ms, route_ms;
  std::size_t storage_first = 0, storage_max = 0;
  double tower_bytes = 0;

  begin_tracing(cfg.traced);
  Loop loop(r, cfg, kPrefix, [] {
    std::vector<double> ignored;
    World scratch(ignored);
  });
  while (loop.next()) {
    const int from = static_cast<int>(rng.range(0, kNodes - 1));
    const int to = static_cast<int>((from + rng.range(1, kNodes - 1)) % kNodes);
    const Amount amount = rng.range(1, kMaxPayment);
    const Amount from0 = net.balance(node(from)), to0 = net.balance(node(to));
    const std::uint64_t hops0 = locked.value();
    r.checks.begin();
    bool ok;
    std::int64_t t0, t1, t2, upd_ns = 0;
    {
      ScopedSpan span(Span::kPay);
      p.in_op = true;
      const std::int64_t upd0 = cfg.traced ? lib_span_ns("daric.update.total") : 0;
      t0 = now_ns();
      const auto id = net.begin_payment(node(from), node(to), amount);
      t1 = now_ns();
      if (cfg.traced) upd_ns = lib_span_ns("daric.update.total") - upd0;
      ok = id.has_value() && net.settle_payment(*id);
      t2 = now_ns();
      p.in_op = false;
    }
    loop.record(t0, t2, static_cast<int>(locked.value() - hops0));
    if (cfg.traced) {
      begin_ms.push_back((t1 - t0) / 1e6);
      settle_ms.push_back((t2 - t1) / 1e6);
      route_ms.push_back((t1 - t0 - upd_ns) / 1e6);
    }

    // Output checks: the payment settled end to end, value moved only from
    // payer to payee, and no HTLC stays locked anywhere.
    r.checks.expect(ok, "payment did not settle");
    r.checks.expect(net.balance(node(from)) == from0 - amount &&
                        net.balance(node(to)) == to0 + amount,
                    "payer/payee balances did not move by the amount");
    Amount sum = 0;
    for (int i = 0; i < kNodes; ++i) sum += net.balance(node(i));
    r.checks.expect(sum == total, "node balances do not sum to the network's capacity");
    for (std::size_t i = 0; i < channels; ++i) {
      const daricch::DaricParty& a = net.channel(i).party(PartyId::kA);
      const daricch::DaricParty& b = net.channel(i).party(PartyId::kB);
      r.checks.expect(a.state().htlcs.empty() && a.state() == b.state() &&
                          a.state_number() == b.state_number(),
                      "an HTLC stayed locked or the parties disagree after pay returned");
    }
    {
      ScopedSpan span(Span::kWatch);
      for (const std::size_t i : w->touched) {
        timed_watch(*w->tower, w->entry(i));
        for (const PartyId who : {PartyId::kA, PartyId::kB}) {
          const std::size_t bytes = net.channel(i).party(who).storage_bytes();
          if (storage_first == 0) storage_first = bytes;
          r.checks.expect(bytes == storage_first, "party storage changed between payments");
          storage_max = std::max(storage_max, bytes);
        }
      }
      tower_bytes = std::max(tower_bytes, static_cast<double>(w->tower->live_record_bytes()) /
                                              static_cast<double>(w->tower->channels()));
      w->touched.clear();
    }
    r.checks.end();
    if (++r.ops == kPrefix) {
      r.counts["messages"] = static_cast<double>(sent.value() - sent0);
      r.counts["hops"] = static_cast<double>(locked.value() - locked0);
      r.counts["persists"] = static_cast<double>(p.persists);
      r.counts["append_bytes"] = static_cast<double>(p.append_bytes);
      r.counts["party_storage_B"] = static_cast<double>(storage_max);
      r.counts["tower_B_per_channel"] = tower_bytes;
      r.peak_rss_mb = peak_rss_mb();
    }
  }
  const std::uint64_t loop_msgs = sent.value() - sent0, hops = locked.value() - locked0;
  const std::uint64_t updates = hops + reg.counter("pcn.htlc.settled").value() +
                                rolled_back.value() - rolled0;

  // Wind down: close every channel cooperatively at its latest balances.
  ledger::Ledger& l = w->env->ledger();
  std::vector<double> close_ms;
  for (std::size_t i = 0; i < channels; ++i) {
    daricch::DaricChannel& ch = net.channel(i);
    const channel::StateVec last = ch.party(PartyId::kA).state();
    const std::size_t from = l.accepted().size();
    const std::int64_t t = now_ns();
    bool closed;
    {
      ScopedSpan span(Span::kClose);
      closed = ch.cooperative_close(PartyId::kA);
    }
    close_ms.push_back((now_ns() - t) / 1e6);
    r.checks.begin();
    r.checks.expect(closed && !ch.party(PartyId::kA).channel_open() &&
                        !ch.party(PartyId::kB).channel_open(),
                    "cooperative close did not resolve");
    r.checks.expect(credited(l, from, ch.party(PartyId::kA).pub().main) == last.to_a &&
                        credited(l, from, ch.party(PartyId::kB).pub().main) == last.to_b,
                    "cooperative close did not pay the latest balances");
    r.checks.end();
  }
  p.tracing = false;
  r.checks.single(conserved(l), "ledger value not conserved");
  r.wu_per_lifecycle =
      static_cast<double>(confirmed_weight(l, 0)) / static_cast<double>(channels);
  r.party_storage_b = r.counts["party_storage_B"];
  r.tower_b_per_channel = r.counts["tower_B_per_channel"];
  r.counts["onchain_wu_per_lifecycle"] = r.wu_per_lifecycle;

  r.named = {{"party_storage_B", {r.party_storage_b, "B"}},
             {"tower_B_per_channel", {r.tower_b_per_channel, "B"}}};

  if (cfg.traced) {
    double wall = 0;
    for (const double v : r.op_ns) wall += v;
    common_layers(r, wall, updates);
    tower_layers(r, w->tower->reactions());
    const double pays = static_cast<double>(r.ops);
    r.layer["pcn.begin_ms"] = {mean(begin_ms), "ms"};
    r.layer["pcn.settle_ms"] = {mean(settle_ms), "ms"};
    r.layer["pcn.route_ms"] = {mean(route_ms), "ms"};
    r.layer["pcn.hops_per_payment"] = {static_cast<double>(hops) / pays, "count"};
    r.layer["pcn.htlc_rolled_back"] = {static_cast<double>(rolled_back.value() - rolled0),
                                       "count"};
    r.layer["sim.msg_per_payment"] = {static_cast<double>(loop_msgs) / pays, "count"};
    r.layer["sim.msg_per_update"] = {
        static_cast<double>(loop_msgs) / static_cast<double>(std::max<std::uint64_t>(updates, 1)),
        "count"};
    r.absent["sim.rounds_per_lifecycle"] =
        "channels live for the whole run, so a lifecycle's rounds depend on its length";
    r.layer["daric.create_ms"] = {mean(create_ms), "ms"};
    r.layer["daric.update_us"] = {
        lib_span_ns("daric.update.total") / 1e3 / static_cast<double>(std::max<std::uint64_t>(updates, 1)),
        "us"};
    r.layer["daric.coop_close_ms"] = {mean(close_ms), "ms"};
    r.absent["daric.force_close_ms"] = "pcn-durable ends every channel cooperatively";
    r.absent["daric.punish_ms"] = "pcn-durable has no cheats";
    r.absent["daric.punish_gap_rounds"] = "pcn-durable has no cheats";
    r.absent["crypto.busy_share.update"] =
        "updates run inside payments; their crypto is booked under pay";
    ScopedSpan span(Span::kReplay);
    w->replay.run(l, w->scheme, r.checks);
    std::uint64_t inputs = 0;
    for (const auto& a : l.accepted()) inputs += a.tx.inputs.size();
    replay_layers(r, w->replay, static_cast<double>(channels), l.accepted().size(), inputs,
                  reg.counter("ledger.tx.rejected").value());
  }
  return r;
}

}  // namespace perfbench
