#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sched.h>
#include <unordered_set>

#include "src/crypto/keys.h"
#include "src/ledger/validation.h"
#include "src/obs/span.h"
#include "src/tx/serializer.h"
#include "src/tx/sighash.h"
#include "src/tx/weight.h"

namespace perfbench {

using namespace daric;  // NOLINT

Probes& probes() {
  static Probes p;
  return p;
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  op_failed_ = true;
  if (reported_++ < 10) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

bool conserved(const ledger::Ledger& l) {
  return l.utxos().total_value() + l.fees_total() == l.minted_total();
}

Amount credited(const ledger::Ledger& l, std::size_t from, BytesView pk33) {
  const tx::Condition cond = tx::Condition::p2wpkh(pk33);
  Amount sum = 0;
  const auto& acc = l.accepted();
  for (std::size_t i = from; i < acc.size(); ++i) {
    const tx::Transaction& t = acc[i].tx;
    const Hash256 id = t.txid();
    for (std::uint32_t k = 0; k < t.outputs.size(); ++k) {
      if (t.outputs[k].cond == cond && l.is_unspent({id, k})) sum += t.outputs[k].cash;
    }
  }
  return sum;
}

std::uint64_t confirmed_weight(const ledger::Ledger& l, std::size_t from) {
  std::uint64_t w = 0;
  const auto& acc = l.accepted();
  for (std::size_t i = from; i < acc.size(); ++i) w += tx::measure(acc[i].tx).weight();
  return w;
}

Bytes main_payout_key(const std::string& id_with_suffix, const char* party) {
  return crypto::derive_keypair(id_with_suffix + "/" + party + "/main").pk.compressed();
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

// --- Loop -------------------------------------------------------------------

namespace {

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: a refusal keeps the CPU
}

}  // namespace

Loop::Loop(PhaseResult& r, const PhaseConfig& cfg, std::uint64_t prefix,
           std::function<void()> setup)
    : r_(r),
      prefix_(prefix),
      budget_ns_(static_cast<std::int64_t>(cfg.seconds * 1e9)),
      setup_(cfg.traced ? nullptr : std::move(setup)) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  }
  if (cpus_.size() > 1) pin_to(cpus_[0]);
  loop0_ = now_ns();
}

bool Loop::next() {
  std::int64_t now = now_ns();
  if (iter0_ != 0) r_.op_cycle_ns.push_back(static_cast<double>(now - iter0_));
  if (r_.ops >= prefix_ && now - loop0_ >= budget_ns_) {
    r_.loop_s = (now - loop0_) / 1e9;
    if (setup_ && r_.setups.empty()) time_setup(now);  // a run too short for a window
    return false;
  }
  const std::int64_t window =
      static_cast<std::int64_t>(static_cast<double>(now - loop0_) / (kWindowSeconds * 1e9));
  if (window != window_ && window_ >= 0 && cpus_.size() > 1) {
    cpu_ = (cpu_ + 1) % cpus_.size();
    pin_to(cpus_[cpu_]);
  }
  if (window != window_ && setup_ && r_.ops >= prefix_) now = time_setup(now);
  window_ = window;
  iter0_ = now;
  return true;
}

std::int64_t Loop::time_setup(std::int64_t start) {
  const Probes saved = probes();
  setup_();
  probes() = saved;
  const std::int64_t done = now_ns();
  r_.setups.push_back({(start - loop0_) / 1e9, (done - start) / 1e9});
  return done;
}

void Loop::record(std::int64_t t0, std::int64_t t1, int kind) {
  r_.op_ns.push_back(static_cast<double>(t1 - t0));
  r_.op_kind.push_back(kind);
  r_.op_end_s.push_back((t1 - loop0_) / 1e9);
}

// --- Replay -----------------------------------------------------------------

void Replay::remember(const ledger::Ledger& l) {
  for (const auto& [op, u] : l.utxos().entries()) known_.try_emplace(op, Known{u.output, u.recorded_round});
}

void Replay::run(const ledger::Ledger& l, const crypto::SignatureScheme& scheme,
                 Checks& checks) {
  const auto& acc = l.accepted();
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const tx::Transaction& t = acc[i].tx;
    const Hash256 id = t.txid();
    for (std::uint32_t k = 0; k < t.outputs.size(); ++k)
      known_.try_emplace({id, k}, Known{t.outputs[k], acc[i].round});
  }
  for (std::size_t i = 0; i < acc.size() && budget_ > 0; ++i) {
    const tx::Transaction& t = acc[i].tx;
    const Round now = acc[i].round;
    ledger::UtxoSet prevouts;
    bool complete = true;
    for (const tx::TxIn& in : t.inputs) {
      const auto it = known_.find(in.prevout);
      if (it == known_.end()) {
        complete = false;
        break;
      }
      prevouts.add({in.prevout, it->second.out, it->second.round});
    }
    if (!complete) {
      ++skipped;
      continue;
    }
    --budget_;
    ++txs;
    std::int64_t t0 = now_ns();
    const Bytes wire = tx::serialize_full(t);
    std::int64_t t1 = now_ns();
    serialize_ns += t1 - t0;
    const Hash256 id = t.txid();
    t0 = now_ns();
    txid_ns += t0 - t1;
    const Hash256 digest = tx::sighash_digest(t, 0, script::SighashFlag::kAll);
    t1 = now_ns();
    sighash_ns += t1 - t0;
    weight += tx::measure(t).weight();
    for (std::size_t k = 0; k < t.inputs.size(); ++k) {
      const auto u = prevouts.find(t.inputs[k].prevout);
      t0 = now_ns();
      const script::ScriptError err =
          tx::verify_input(t, k, u->output, scheme, now - u->recorded_round);
      verify_input_ns += now_ns() - t0;
      ++inputs;
      checks.single(err == script::ScriptError::kOk,
                    std::string("replayed input fails: ") + script::script_error_name(err));
    }
    const std::unordered_set<Hash256, Hash256Hasher> seen;
    t0 = now_ns();
    const ledger::TxError err =
        ledger::validate_transaction(t, {prevouts, seen, now, scheme});
    validate_ns += now_ns() - t0;
    checks.single(err == ledger::TxError::kOk,
                  std::string("replayed tx fails: ") + ledger::tx_error_name(err));
    sink ^= wire.size() ^ id.data[0] ^ digest.data[0];
  }
}

// --- tracing ------------------------------------------------------------------

namespace {

struct SpanTotal {
  std::int64_t sum = 0;
  std::uint64_t count = 0;
};

constexpr const char* kLibSpans[] = {"daric.update.total",   "daric.update.skeleton",
                                     "daric.update.sighash", "daric.update.sign",
                                     "daric.update.batch_flush", "tower.react", "pcn.pay.lock"};

std::map<std::string, SpanTotal>& span_base() {
  static std::map<std::string, SpanTotal> base;
  return base;
}

SpanTotal span_delta(const std::string& name) {
  const obs::Histogram& h = obs::span_histogram(name);
  const SpanTotal b = span_base()[name];
  return {h.sum() - b.sum, h.count() - b.count};
}

}  // namespace

void begin_tracing(bool traced) {
  Probes& p = probes();
  p = Probes{};
  p.tracing = traced;
  obs::set_spans_enabled(traced);
  for (const char* name : kLibSpans) {
    const obs::Histogram& h = obs::span_histogram(name);
    span_base()[name] = {h.sum(), h.count()};
  }
}

std::int64_t lib_span_ns(const std::string& name) { return span_delta(name).sum; }

void common_layers(PhaseResult& r, double op_wall_ns, std::uint64_t daric_updates) {
  Probes& p = probes();
  auto set = [&r](const std::string& name, double v, const char* unit) {
    r.layer[name] = {v, unit};
  };
  const double ops = static_cast<double>(std::max<std::uint64_t>(r.ops, 1));

  // crypto, over the measured loop (replay excluded).
  std::uint64_t calls[kCryptoOps] = {}, items[kCryptoOps] = {};
  std::int64_t ns[kCryptoOps] = {};
  for (std::size_t o = 0; o < kCryptoOps; ++o) {
    for (std::size_t s = 0; s < kSpans; ++s) {
      if (s == static_cast<std::size_t>(Span::kReplay)) continue;
      calls[o] += p.crypto_calls[o][s];
      items[o] += p.crypto_items[o][s];
      ns[o] += p.crypto_ns[o][s];
    }
  }
  auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto kS = static_cast<std::size_t>(CryptoOp::kSign);
  const auto kV = static_cast<std::size_t>(CryptoOp::kVerify);
  const auto kB = static_cast<std::size_t>(CryptoOp::kBatch);
  set("crypto.sign.calls", per(calls[kS], ops), "count/op");
  set("crypto.sign.us", per(ns[kS] / 1e3, calls[kS]), "us");
  set("crypto.verify.calls", per(calls[kV], ops), "count/op");
  set("crypto.verify.us", per(ns[kV] / 1e3, calls[kV]), "us");
  set("crypto.batch.calls", per(calls[kB], ops), "count/op");
  set("crypto.batch.items_per_call", per(items[kB], calls[kB]), "count");
  set("crypto.batch.us_per_item", per(ns[kB] / 1e3, items[kB]), "us");
  set("crypto.busy_share", per(p.layer_ns_in_op[Probes::kCrypto], op_wall_ns), "ratio");
  const std::pair<const char*, Span> attributed[] = {
      {"crypto.busy_share.update", Span::kUpdate},
      {"crypto.busy_share.close", Span::kClose},
      {"crypto.busy_share.pay", Span::kPay}};
  for (const auto& [name, span] : attributed) {
    const auto s = static_cast<std::size_t>(span);
    if (p.span_wall_ns[s] == 0) {
      r.absent[name] = "the workload runs no benchmark span of this kind";
      continue;
    }
    double busy = 0;
    for (std::size_t o = 0; o < kCryptoOps; ++o) busy += static_cast<double>(p.crypto_ns[o][s]);
    set(name, busy / static_cast<double>(p.span_wall_ns[s]), "ratio");
  }

  // daric: the library's own update spans, per update.
  const SpanTotal total = span_delta("daric.update.total");
  if (total.count > 0) {
    const double n = static_cast<double>(total.count);
    std::int64_t covered = 0;
    for (const char* phase : {"skeleton", "sighash", "sign", "batch_flush"}) {
      const SpanTotal d = span_delta(std::string("daric.update.") + phase);
      covered += d.sum;
      set(std::string("daric.update.") + phase + "_us", d.sum / 1e3 / n, "us");
    }
    set("daric.update.uncovered_share",
        1.0 - static_cast<double>(covered) / static_cast<double>(std::max<std::int64_t>(total.sum, 1)),
        "ratio");
  } else {
    for (const char* m : {"skeleton_us", "sighash_us", "sign_us", "batch_flush_us",
                          "uncovered_share"})
      r.absent[std::string("daric.update.") + m] = "no Daric update ran";
  }
  if (p.step_updates > 0) {
    const double n = static_cast<double>(p.step_updates);
    for (std::size_t k = 0; k < 6; ++k)
      set("daric.update.msg" + std::to_string(k + 1) + "_us", p.step_ns[k] / 1e3 / n, "us");
    set("daric.update.tail_us", p.step_tail_ns / 1e3 / n, "us");
  } else {
    for (int k = 1; k <= 6; ++k)
      r.absent["daric.update.msg" + std::to_string(k) + "_us"] =
          "Daric updates run only inside pcn payments, which the benchmark cannot split by message";
    r.absent["daric.update.tail_us"] = r.absent["daric.update.msg1_us"];
  }

  // store: the timing DurabilityHook and counting backend.
  if (p.persists > 0) {
    const double upd = static_cast<double>(std::max<std::uint64_t>(daric_updates, 1));
    set("store.persist_us", p.persist_ns / 1e3 / static_cast<double>(p.persists), "us");
    set("store.persists_per_update", static_cast<double>(p.persists) / upd, "count");
    set("store.append_bytes_per_update", static_cast<double>(p.append_bytes) / upd, "B");
    set("store.compactions", static_cast<double>(p.replaces), "count");
  } else {
    for (const char* m : {"store.persist_us", "store.persists_per_update",
                          "store.append_bytes_per_update", "store.compactions"})
      r.absent[m] = "no party journals through a ChannelStore in this workload";
  }

  double layer_ns = 0;
  for (const std::int64_t v : p.layer_ns_in_op) layer_ns += static_cast<double>(v);
  set("obs.span_coverage", per(layer_ns, op_wall_ns), "ratio");
}

void hook_tower(sim::Environment& env, store::TowerService& tower) {
  env.add_round_hook([&env, &tower] {
    Probes& p = probes();
    const std::int64_t t = p.tracing ? now_ns() : 0;
    tower.on_round(env.ledger());
    if (!p.tracing) return;
    const std::int64_t ns = now_ns() - t;
    ++p.tower_rounds;
    p.tower_round_ns += ns;
    p.add_layer(Probes::kTower, ns);
  });
}

void timed_watch(store::TowerService& tower, const store::WatchEntry& e) {
  Probes& p = probes();
  const std::int64_t t = p.tracing ? now_ns() : 0;
  tower.watch(e);
  if (!p.tracing) return;
  const std::int64_t ns = now_ns() - t;
  ++p.tower_watches;
  p.tower_watch_ns += ns;
  p.add_layer(Probes::kTower, ns);
}

void tower_layers(PhaseResult& r, std::uint64_t reactions) {
  const Probes& p = probes();
  if (p.tower_watches > 0)
    r.layer["tower.watch_us"] = {p.tower_watch_ns / 1e3 / static_cast<double>(p.tower_watches), "us"};
  else
    r.absent["tower.watch_us"] = "the tower was fed outside the measured loop";
  if (p.tower_rounds > 0)
    r.layer["tower.round_us"] = {p.tower_round_ns / 1e3 / static_cast<double>(p.tower_rounds), "us"};
  const SpanTotal react = span_delta("tower.react");
  if (react.count > 0)
    r.layer["tower.react_us"] = {react.sum / 1e3 / static_cast<double>(react.count), "us"};
  else
    r.absent["tower.react_us"] = "no watched channel was spent during the measured loop";
  r.layer["tower.reactions"] = {static_cast<double>(reactions), "count"};
}

void replay_layers(PhaseResult& r, const Replay& rp, double lifecycles, std::uint64_t confirmed,
                   std::uint64_t inputs, std::uint64_t rejected) {
  if (rp.txs > 0) {
    const double n = static_cast<double>(rp.txs);
    r.layer["tx.serialize_us"] = {rp.serialize_ns / 1e3 / n, "us"};
    r.layer["tx.txid_us"] = {rp.txid_ns / 1e3 / n, "us"};
    r.layer["tx.sighash_us"] = {rp.sighash_ns / 1e3 / n, "us"};
    r.layer["tx.weight_wu"] = {static_cast<double>(rp.weight) / n, "wu"};
    r.layer["script.verify_input_us"] = {
        rp.verify_input_ns / 1e3 / static_cast<double>(std::max<std::uint64_t>(rp.inputs, 1)), "us"};
    r.layer["ledger.validate_us"] = {rp.validate_ns / 1e3 / n, "us"};
  } else {
    for (const char* m : {"tx.serialize_us", "tx.txid_us", "tx.sighash_us", "tx.weight_wu",
                          "script.verify_input_us", "ledger.validate_us"})
      r.absent[m] = "no confirmed transaction could be replayed";
  }
  if (rp.skipped > 0)
    r.notes.push_back(std::to_string(rp.skipped) +
                      " confirmed txs spend minted coins the ledger no longer holds and were "
                      "not replayed");
  r.layer["script.inputs_per_lifecycle"] = {static_cast<double>(inputs) / lifecycles, "count"};
  r.layer["ledger.confirmed_per_lifecycle"] = {static_cast<double>(confirmed) / lifecycles,
                                               "count"};
  r.layer["ledger.rejected"] = {static_cast<double>(rejected), "count"};
}

}  // namespace perfbench
