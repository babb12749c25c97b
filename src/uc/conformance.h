// Executable conformance checks against the ideal functionality F(T) of
// Appendix A. F never outputs Error when interacting with the Daric
// protocol (that is the content of Theorem 1); this checker watches a real
// channel execution and raises a violation whenever one of F's guarantees
// would have forced an Error:
//
//  * consensus on creation — CREATED at a party implies both parties open
//    with identical γ;
//  * optimistic update — honest updates add no ledger transactions;
//  * bounded closure with punish — once the funding output is spent, then
//    within T + Δ (+ scheduling slack) rounds the channel resolves to
//    (i) all of γ.cash at an honest party, (ii) γ.st, or (iii) γ.st'.
//
// The checker reads only observable state (ledger contents and the
// parties' public accessors), exactly like the environment E in the UC
// experiment.
#pragma once

#include <string>

#include "src/daric/protocol.h"

namespace daric::uc {

class ConformanceChecker {
 public:
  /// Registers a monitoring hook on the environment, removed again when the
  /// checker is destroyed.
  ConformanceChecker(sim::Environment& env, daricch::DaricChannel& channel);

  /// Call right after DaricChannel::create() succeeded.
  void observe_created();
  /// Call before / after each honest update attempt.
  void observe_update_begin();
  void observe_update_end(bool updated);

  bool satisfied() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  void on_round();
  void fail(std::string what) { violations_.push_back(std::move(what)); }

  /// Does `outputs` equal the state vector θ⃗ (balances + HTLCs)?
  bool matches_state(const std::vector<tx::Output>& outputs,
                     const channel::StateVec& st) const;

  sim::Environment& env_;
  daricch::DaricChannel& channel_;
  std::vector<std::string> violations_;

  std::size_t ledger_txs_before_update_ = 0;
  std::optional<Round> funding_spent_round_;
  bool resolved_ = false;
  // γ snapshot at the moment the funding output was spent.
  channel::StateVec gamma_st_, gamma_st_prime_;
  bool had_st_prime_ = false;
  sim::RoundHooks hooks_{env_};
};

}  // namespace daric::uc
