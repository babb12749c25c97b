// perfbench: one process, one thread, one closed-loop workload.
//
//   perfbench --workload <daric-update|dispute-mix|pcn-durable> --seed N
//             --seconds S --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with every probe reading no
// clock; its timings come from the run's least-disturbed windows (see
// quiet_windows). --trace 1 runs the workload twice, each for half the
// time: first untraced, then with the layer probes and the library's
// OBS_SPANs on; it reports the per-layer metrics of the traced half and the
// overhead of tracing as the ratio of the two halves' mean op latency.
//
// The last stdout line is the result object; lines before it start with
// '#' and carry the run's context, the workload's metrics under its own
// names, the exact counts and the reason for every absent metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"

namespace {

using perfbench::Metric;
using perfbench::PhaseConfig;
using perfbench::PhaseResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <daric-update|dispute-mix|"
               "pcn-durable> --seed N --seconds S --trace <0|1>\n",
               why);
  return 2;
}

/// The end-to-end metrics, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},        {"ops_per_s", "1/s"},        {"op_p50_ms", "ms"},
    {"op_p95_ms", "ms"},     {"onchain_wu_per_lifecycle", "wu"},
    {"party_storage_B", "B"}, {"tower_B_per_channel", "B"}, {"peak_rss_MB", "MB"}};

/// The per-layer metrics, in the order BENCHMARK.json lists them.
std::vector<std::pair<std::string, std::string>> per_layer_names() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"crypto.sign.calls", "count/op"},
      {"crypto.sign.us", "us"},
      {"crypto.verify.calls", "count/op"},
      {"crypto.verify.us", "us"},
      {"crypto.batch.calls", "count/op"},
      {"crypto.batch.items_per_call", "count"},
      {"crypto.batch.us_per_item", "us"},
      {"crypto.busy_share", "ratio"},
      {"crypto.busy_share.update", "ratio"},
      {"crypto.busy_share.close", "ratio"},
      {"crypto.busy_share.pay", "ratio"},
      {"daric.update.skeleton_us", "us"},
      {"daric.update.sighash_us", "us"},
      {"daric.update.sign_us", "us"},
      {"daric.update.batch_flush_us", "us"},
      {"daric.update.uncovered_share", "ratio"}};
  for (int k = 1; k <= 6; ++k) v.push_back({"daric.update.msg" + std::to_string(k) + "_us", "us"});
  v.push_back({"daric.update.tail_us", "us"});
  v.push_back({"daric.punish_gap_rounds", "rounds"});
  for (const char* e : {"daric", "lightning", "eltoo", "generalized", "cerberus", "fppw"}) {
    const std::string n = e;
    v.push_back({n + ".create_ms", "ms"});
    v.push_back({n + ".update_us", "us"});
    v.push_back({n + ".coop_close_ms", "ms"});
    v.push_back({n + ".force_close_ms", "ms"});
    v.push_back({n + ".punish_ms", "ms"});
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"sim.msg_per_update", "count"},
      {"sim.msg_per_payment", "count"},
      {"sim.rounds_per_lifecycle", "rounds"},
      {"tx.serialize_us", "us"},
      {"tx.txid_us", "us"},
      {"tx.sighash_us", "us"},
      {"tx.weight_wu", "wu"},
      {"script.verify_input_us", "us"},
      {"script.inputs_per_lifecycle", "count"},
      {"ledger.validate_us", "us"},
      {"ledger.confirmed_per_lifecycle", "count"},
      {"ledger.rejected", "count"},
      {"store.persist_us", "us"},
      {"store.persists_per_update", "count"},
      {"store.append_bytes_per_update", "B"},
      {"store.compactions", "count"},
      {"tower.watch_us", "us"},
      {"tower.round_us", "us"},
      {"tower.react_us", "us"},
      {"tower.reactions", "count"},
      {"pcn.begin_ms", "ms"},
      {"pcn.settle_ms", "ms"},
      {"pcn.route_ms", "ms"},
      {"pcn.hops_per_payment", "count"},
      {"pcn.htlc_rolled_back", "count"},
      {"obs.trace_overhead", "ratio"},
      {"obs.span_coverage", "ratio"}};
  v.insert(v.end(), rest.begin(), rest.end());
  return v;
}

/// Why a per-layer metric a workload does not produce is absent.
std::string default_absence(const std::string& name, const std::string& workload) {
  if (name.rfind("pcn.", 0) == 0 || name == "sim.msg_per_payment" ||
      name == "crypto.busy_share.pay")
    return workload + " makes no multi-hop payments";
  for (const char* e : {"lightning.", "eltoo.", "generalized.", "cerberus.", "fppw."})
    if (name.rfind(e, 0) == 0) return "baseline engines run only in dispute-mix";
  if (name == "daric.punish_gap_rounds") return workload + " has no cheats";
  return workload + " does not exercise this layer";
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

double median(std::vector<double> v) { return perfbench::percentile(v, 0.5); }

/// The operations of the run's least-disturbed windows.
///
/// On a shared host the same code runs up to 1.5x slower for seconds at a
/// time while neighbours load its CPU, so whole-run figures spread by
/// 20-40% from run to run. The run is cut into windows of kWindowSeconds.
/// Each window is ranked by how slow the machine was: the median, over its
/// operations, of each operation's latency relative to the run's median for
/// operations of the same kind (so a window is not ranked quiet because it
/// happened to draw cheap operations). The sixth of the full windows that
/// ran fastest is kept, and every timing is computed over their operations.
struct Quiet {
  std::vector<double> op_ns;
  double cycle_ns = 0;           // the kept iterations' wall time
  std::vector<double> setup_s;   // set-ups timed at the start of kept windows
  std::size_t windows = 0, kept = 0;
};

Quiet quiet_windows(const PhaseResult& r) {
  std::map<int, std::vector<double>> by_kind;
  for (std::size_t i = 0; i < r.op_ns.size(); ++i) by_kind[r.op_kind[i]].push_back(r.op_ns[i]);
  std::map<int, double> kind_median;
  for (auto& [kind, lat] : by_kind) kind_median[kind] = median(lat);

  const auto full = static_cast<std::size_t>(r.loop_s / perfbench::kWindowSeconds);
  std::vector<std::vector<std::size_t>> ops(std::max<std::size_t>(full, 1));
  for (std::size_t i = 0; i < r.op_ns.size(); ++i) {
    const auto w = static_cast<std::size_t>(r.op_end_s[i] / perfbench::kWindowSeconds);
    if (w < ops.size()) ops[w].push_back(i);
  }
  std::vector<std::pair<double, std::size_t>> by_median;
  for (std::size_t w = 0; w < ops.size(); ++w) {
    if (ops[w].empty()) continue;
    std::vector<double> slowness;
    for (const std::size_t i : ops[w]) slowness.push_back(r.op_ns[i] / kind_median[r.op_kind[i]]);
    by_median.push_back({median(slowness), w});
  }
  std::sort(by_median.begin(), by_median.end());
  Quiet q;
  q.windows = by_median.size();
  q.kept = std::max<std::size_t>(1, (q.windows + 5) / 6);
  std::vector<bool> kept(ops.size(), false);
  for (std::size_t k = 0; k < q.kept && k < by_median.size(); ++k) {
    const std::size_t w = by_median[k].second;
    kept[w] = true;
    for (const std::size_t i : ops[w]) {
      q.op_ns.push_back(r.op_ns[i]);
      q.cycle_ns += r.op_cycle_ns[i];
    }
  }
  for (const auto& [at, secs] : r.setups) {
    const auto w = static_cast<std::size_t>(at / perfbench::kWindowSeconds);
    if (w < kept.size() && kept[w]) q.setup_s.push_back(secs);
  }
  if (q.setup_s.empty())
    for (const auto& [at, secs] : r.setups) q.setup_s.push_back(secs);
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v);
    else return usage(("unknown argument " + k).c_str());
  }
  if (argc % 2 == 0) return usage("arguments come in --name value pairs");
  if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) return usage("bad --seconds or --trace");
  PhaseResult (*run)(const PhaseConfig&) = nullptr;
  if (a.workload == "daric-update") run = perfbench::run_daric_update;
  else if (a.workload == "dispute-mix") run = perfbench::run_dispute_mix;
  else if (a.workload == "pcn-durable") run = perfbench::run_pcn_durable;
  else return usage("unknown --workload");

#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to measure a build without NDEBUG (assertions and "
               "debug-only cross-checks would be timed); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#endif

  std::printf(
      "# context {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\",\"ndebug\":true,"
      "\"threads\":1,\"loop\":\"closed\",\"flush_policy\":\"MemoryBackend: sync() marks the "
      "durable watermark in memory; no device flush\"}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), num(a.seconds).c_str(),
      a.trace, std::thread::hardware_concurrency(), json_escape("gcc " __VERSION__).c_str(),
      PERFBENCH_BUILD_TYPE);

  std::map<std::string, Metric> out;
  PhaseResult r;
  std::uint64_t attempted = 0, failed = 0;
  try {
    perfbench::begin_tracing(false);
    if (a.trace == 0) {
      r = run({a.seed, a.seconds, false});
    } else {
      const PhaseResult u = run({a.seed, a.seconds / 2, false});
      perfbench::begin_tracing(false);
      r = run({a.seed, a.seconds / 2, true});
      r.layer["obs.trace_overhead"] = {perfbench::mean(r.op_ns) / perfbench::mean(u.op_ns),
                                       "ratio"};
      attempted += u.checks.attempted();
      failed += u.checks.failed();
    }
    attempted += r.checks.attempted();
    failed += r.checks.failed();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(), e.what());
    return 1;
  }

  Quiet q = quiet_windows(r);
  const double per_s = static_cast<double>(q.op_ns.size()) / (q.cycle_ns / 1e9);
  std::vector<double> lat = q.op_ns;
  const double p50 = perfbench::percentile(lat, 0.50), p95 = perfbench::percentile(lat, 0.95),
               p99 = perfbench::percentile(lat, 0.99);
  if (a.trace == 0) {
    out["setup_s"] = {median(q.setup_s), "s"};
    out["ops_per_s"] = {per_s, "1/s"};
    out["op_p50_ms"] = {p50 / 1e6, "ms"};
    out["op_p95_ms"] = {p95 / 1e6, "ms"};
    out["onchain_wu_per_lifecycle"] = {r.wu_per_lifecycle, "wu"};
    out["party_storage_B"] = {r.party_storage_b, "B"};
    out["tower_B_per_channel"] = {r.tower_b_per_channel, "B"};
    out["peak_rss_MB"] = {r.peak_rss_mb, "MB"};
  } else {
    for (const auto& [name, unit] : per_layer_names()) {
      const auto it = r.layer.find(name);
      if (it != r.layer.end()) {
        out[name] = {it->second.value, unit};
        continue;
      }
      const auto why = r.absent.find(name);
      std::printf("# absent %s: %s\n", name.c_str(),
                  (why != r.absent.end() ? why->second : default_absence(name, a.workload))
                      .c_str());
      out[name] = {0, unit};
    }
  }

  const double scale = std::strcmp(r.op_unit, "us") == 0 ? 1e3 : 1e6;
  std::printf("# e2e %s_per_s %s 1/s\n", r.op_name.c_str(), num(per_s).c_str());
  std::printf("# e2e %s_p50_%s %s %s\n", r.op_name.c_str(), r.op_unit, num(p50 / scale).c_str(),
              r.op_unit);
  std::printf("# e2e %s_p99_%s %s %s\n", r.op_name.c_str(), r.op_unit, num(p99 / scale).c_str(),
              r.op_unit);
  for (const auto& [name, m] : r.named)
    std::printf("# e2e %s %s %s\n", name.c_str(), num(m.value).c_str(), m.unit.c_str());
  std::printf("# samples ops=%llu kept=%zu windows=%zu/%zu setups=%zu\n",
              static_cast<unsigned long long>(r.ops), q.op_ns.size(), q.kept, q.windows,
              q.setup_s.size());
  if (q.op_ns.size() < 1000)
    std::printf("# note %zu kept operations: p99 has fewer than 10 samples beyond it\n",
                q.op_ns.size());
  std::string counts = "# counts {";
  for (const auto& [name, v] : r.counts) counts += "\"" + name + "\":" + num(v) + ",";
  if (counts.back() == ',') counts.pop_back();
  std::printf("%s}\n", counts.c_str());
  for (const std::string& n : r.notes) std::printf("# note %s\n", n.c_str());

  const bool correct = failed == 0;
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const auto& order = a.trace == 0 ? kEndToEnd : per_layer_names();
  bool first = true;
  for (const auto& [name, unit] : order) {
    const Metric& m = out.at(name);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
