// Chaos drills: run one registry engine under a FaultSchedule and audit
// the terminal on-chain state against the paper's funds-security claims.
//
// One driver serves every engine through channel::Engine: create → updates
// → (abort | fraud | cooperative close | force close) with the schedule's
// message faults, adversarial ledger delays and monitor blackouts applied.
// Phases only Daric has — durable stores, crash recovery from them and the
// split-sweeping cheater — come from the DrillHook on its registry entry.
// The drill then audits the UTXO set:
//   · conservation — no value appears or vanishes (minted = unspent + fees);
//   · payout — the parties' P2WPKH credits match a state both signed
//     (full capacity to the victim after a punishment).
// Generated schedules respect Theorem 1's liveness precondition, so every
// invariant must hold. Crafted schedules may set expect_loss: the drill
// then demands the opposite — demonstrable funds loss — which pins the
// T − Δ failure boundary instead of hand-waving it.
#pragma once

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/channel/engine.h"
#include "src/sim/faults/schedule.h"

namespace daric::obs {
class Sink;
}

namespace daric::sim::faults {

struct DrillReport {
  std::string engine;
  std::uint64_t seed = 0;
  bool create_ok = false;
  std::uint32_t updates_done = 0;
  bool crashed = false;  // crash-recovery path exercised
  bool cheated = false;  // fraud path exercised
  bool closed = false;
  bool punished = false;
  bool funds_lost = false;
  bool conservation_ok = false;
  bool payout_ok = false;
  /// The run behaved as the schedule demands: all invariants hold, or —
  /// for expect_loss schedules — the funds loss actually materialized.
  bool ok = false;
  std::string detail;
  std::uint64_t msg_total = 0;
  std::uint64_t msg_dropped = 0;
  std::uint64_t msg_delayed = 0;
  std::uint64_t msg_duplicated = 0;
};

/// Optional observability attachment for one drill run. Everything is
/// non-owning / output-only, so the default-constructed value keeps the
/// drill's tracer disabled (null sink) and skips the snapshots.
struct DrillObs {
  /// Receives every trace event of the run (attaching enables tracing).
  obs::Sink* sink = nullptr;
  /// Filled with Registry::snapshot_json() / summary_text() at drill end.
  std::string* metrics_json = nullptr;
  std::string* metrics_text = nullptr;
};

/// Replays `s` against the registry engine `engine` (throws
/// std::invalid_argument for an unknown name). Deterministic: the report is
/// a pure function of (engine, s); the obs attachment only observes the run
/// and never perturbs it.
DrillReport run_drill(std::string_view engine, const FaultSchedule& s, const DrillObs& obs = {});

/// The parties' P2WPKH credits at the end of a run.
struct Payout {
  Amount a = 0;
  Amount b = 0;
  bool operator==(const Payout&) const = default;
};

/// One drill run in progress: what an engine's DrillHook reads and steers.
struct DrillRun {
  const FaultSchedule& s;
  Environment& env;
  channel::Engine& ch;
  DrillReport& rep;
  /// The last state both parties fully signed, and the one in flight.
  channel::StateVec stable;
  std::optional<channel::StateVec> attempted;
  /// Whether the schedule's monitor blackouts still drive the monitors
  /// (endgames that take over the online flags turn them off).
  bool windows_active = true;

  /// Sets rep.conservation_ok, and rep.payout_ok iff the parties' credits
  /// equal one of `candidates`.
  void audit(std::initializer_list<Payout> candidates);
};

/// Drill phases only one engine has, reached through its registry entry.
class DrillHook {
 public:
  DrillHook() = default;
  DrillHook(const DrillHook&) = delete;
  DrillHook& operator=(const DrillHook&) = delete;
  virtual ~DrillHook() = default;
  /// Rounds the driver gives a closing channel.
  virtual Round close_rounds() const { return 400; }
  /// After the channel is built, before create().
  virtual void attach(DrillRun& run) = 0;
  /// Before update `n` (1-based): true if it armed a crash, so a failing
  /// update is the crash, not an abort.
  virtual bool before_update(DrillRun& run, std::uint32_t n) = 0;
  /// After update `n` succeeded: true stops the updates.
  virtual bool stop_after(DrillRun& run, std::uint32_t n) = 0;
  /// Runs the ending itself (true), or leaves it to the driver (false).
  virtual bool end(DrillRun& run) = 0;
};

/// Daric's hook: both parties journal to durable stores, a scheduled crash
/// recovers the victim from its store's durable image, and fraud is the
/// split-sweeping cheater of the downtime boundary probe below.
std::unique_ptr<DrillHook> daric_drill_hook();

/// Daric watchtower/party-downtime boundary probe (Theorem 1): the cheater
/// publishes a revoked commit with confirmation delay 1 and sweeps the
/// matching revoked split the moment its CSV(T) matures, while the victim's
/// monitor stays dark for `offline_rounds` after the publication and its
/// own transactions suffer the worst-case ledger delay Δ. Safe iff
/// offline_rounds ≤ T − Δ.
struct BoundaryReport {
  Round offline_rounds = 0;
  bool punished = false;
  bool funds_lost = false;
  bool closed = false;
  bool conservation_ok = false;
  /// Longest contiguous run of rounds the victim's monitor actually missed,
  /// read back from the party's own downtime accounting (the same series
  /// the obs registry exports). Sweeps assert the T − Δ boundary against
  /// this observed gap, not just the requested offline_rounds.
  Round observed_gap = 0;
};

BoundaryReport run_downtime_boundary(Round offline_rounds, Round t_punish, Round delta);

}  // namespace daric::sim::faults
