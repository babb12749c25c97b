// Shared pieces of the three workloads: seeded inputs, latency samples,
// output checks, ledger audits, the confirmed-transaction replay and the
// per-phase result every workload returns.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/probes.h"
#include "src/ledger/ledger.h"
#include "src/obs/metrics.h"
#include "src/sim/environment.h"
#include "src/store/tower.h"

namespace perfbench {

using daric::Amount;
using daric::Bytes;
using daric::BytesView;
using daric::Round;

/// splitmix64: the same seed gives the same inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[next() % i]);
  }

 private:
  std::uint64_t s_;
};

/// Nearest-rank percentile of `v` (sorted in place).
double percentile(std::vector<double>& v, double q);

/// Counts attempted operations and the ones whose output checks failed.
/// An operation fails once however many of its checks fail.
class Checks {
 public:
  void begin() { op_failed_ = false; }
  void expect(bool ok, const std::string& what);
  void end() {
    ++attempted_;
    if (op_failed_) ++failed_;
  }
  /// One self-contained check counted as its own attempt.
  void single(bool ok, const std::string& what) {
    begin();
    expect(ok, what);
    end();
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t reported_ = 0;
  bool op_failed_ = false;
};

/// Ledger value conservation: minted = unspent + fees.
bool conserved(const daric::ledger::Ledger& l);

/// Unspent value paying P2WPKH(pk33) among the transactions accepted at or
/// after index `from` of the ledger's accepted list.
Amount credited(const daric::ledger::Ledger& l, std::size_t from, BytesView pk33);

/// Summed BIP-141 weight of the transactions accepted at or after `from`.
std::uint64_t confirmed_weight(const daric::ledger::Ledger& l, std::size_t from);

/// P2WPKH payout key of `party` ("A"/"B") for engines that derive their
/// wallet as `<id><suffix>/<party>/main`.
Bytes main_payout_key(const std::string& id_with_suffix, const char* party);

/// Peak resident set so far (VmHWM), in MB.
double peak_rss_mb();

/// Re-validates confirmed transactions layer by layer (serializer, txid,
/// sighash, script interpreter, ledger rules) off the run's critical path.
class Replay {
 public:
  /// Records the ledger's current unspent outputs so transactions spending
  /// minted coins can be replayed later (the ledger forgets spent mints).
  void remember(const daric::ledger::Ledger& l);
  /// Replays the ledger's accepted transactions (at most 2000 over the
  /// Replay's life); each replayed input and transaction is one check.
  void run(const daric::ledger::Ledger& l, const daric::crypto::SignatureScheme& scheme,
           Checks& checks);
  /// Drops the remembered outputs: a new ledger reuses the mint outpoints.
  void forget() { known_.clear(); }

  std::uint64_t txs = 0, skipped = 0, inputs = 0, weight = 0;
  std::uint64_t sink = 0;  // keeps the timed results observable
  std::int64_t serialize_ns = 0, txid_ns = 0, sighash_ns = 0, verify_input_ns = 0,
               validate_ns = 0;

 private:
  struct Known {
    daric::tx::Output out;
    Round round = 0;
  };
  std::unordered_map<daric::tx::OutPoint, Known, daric::tx::OutPointHasher> known_;
  std::size_t budget_ = 2000;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one phase (setup + measured loop) of a workload produced.
struct PhaseResult {
  /// The workload's operation ("update", "lifecycle", "payment") and the
  /// unit its latency prints in under the workload's own names.
  std::string op_name;
  const char* op_unit = "ms";
  // One entry per measured operation: latency, end time since the loop
  // started, and the whole loop iteration (checks included).
  std::vector<double> op_ns, op_end_s, op_cycle_ns;
  std::vector<int> op_kind;
  /// (start time since the loop started, duration) of each timed set-up.
  std::vector<std::pair<double, double>> setups;
  double loop_s = 0;                // wall time of the measured loop
  std::uint64_t ops = 0;
  double peak_rss_mb = 0;           // sampled when the fixed prefix completes
  Checks checks;
  /// Exact, seed-determined costs over the fixed prefix (and final closes).
  std::map<std::string, double> counts;
  /// The cost metrics of the end-to-end set.
  double wu_per_lifecycle = 0, party_storage_b = 0, tower_b_per_channel = 0;
  /// The workload's view under its own names (printed as `# e2e` lines).
  std::vector<std::pair<std::string, Metric>> named;
  /// Per-layer metrics (traced phases only) and reasons for absent ones.
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> absent;
  std::vector<std::string> notes;
};

struct PhaseConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
};

/// Length of the windows a run is cut into (see main.cpp).
inline constexpr double kWindowSeconds = 0.5;

/// The measured loop of a phase. It runs until the fixed prefix of
/// operations is done and `seconds` have passed and records every
/// operation. At each window boundary it moves the thread to the next
/// allowed CPU (on a shared host the slow spells come and go per vCPU, so
/// every run visits each of them), and in untraced phases past the prefix
/// it times one fresh set-up (the probes are restored afterwards, so a
/// set-up's journal writes never reach the run's counts).
class Loop {
 public:
  Loop(PhaseResult& r, const PhaseConfig& cfg, std::uint64_t prefix,
       std::function<void()> setup);
  /// Starts the next iteration; false once the loop is over.
  bool next();
  /// Records the iteration's operation, which ran from t0 to t1. `kind`
  /// groups operations that do the same work (see main.cpp).
  void record(std::int64_t t0, std::int64_t t1, int kind);

 private:
  /// Times one set-up that starts at `start`; returns when it ended.
  std::int64_t time_setup(std::int64_t start);

  PhaseResult& r_;
  std::uint64_t prefix_;
  std::int64_t budget_ns_;
  std::function<void()> setup_;
  std::int64_t loop0_ = 0, iter0_ = 0;
  std::int64_t window_ = -1;
  std::vector<int> cpus_;  // the CPUs the process may run on
  std::size_t cpu_ = 0;
};

PhaseResult run_daric_update(const PhaseConfig& cfg);
PhaseResult run_dispute_mix(const PhaseConfig& cfg);
PhaseResult run_pcn_durable(const PhaseConfig& cfg);

/// Resets every probe accumulator and records the library spans' totals;
/// in a traced phase it also turns on the probes' clocks and the library's
/// OBS_SPANs.
void begin_tracing(bool traced);

/// Nanoseconds a library OBS_SPAN accumulated since begin_tracing().
std::int64_t lib_span_ns(const std::string& name);

/// Per-layer metrics every workload derives the same way: crypto, the
/// Daric update's library spans and message steps, store, coverage.
/// `op_wall_ns` is the measured operations' summed latency; the store
/// metrics are per Daric update, of which the loop ran `daric_updates`.
void common_layers(PhaseResult& r, double op_wall_ns, std::uint64_t daric_updates);

/// Registers the tower's per-round pass on `env`, timed as the tower layer.
void hook_tower(daric::sim::Environment& env, daric::store::TowerService& tower);
/// tower.watch(), timed as the tower layer.
void timed_watch(daric::store::TowerService& tower, const daric::store::WatchEntry& e);
/// tower.* per-layer metrics from the probes and the library's react span.
void tower_layers(PhaseResult& r, std::uint64_t reactions);
/// tx.*, script.* and ledger.* per-layer metrics from a replay.
void replay_layers(PhaseResult& r, const Replay& rp, double lifecycles,
                   std::uint64_t confirmed, std::uint64_t inputs, std::uint64_t rejected);

/// Mean of the samples (0 when empty).
double mean(const std::vector<double>& v);

}  // namespace perfbench
