#include "src/ledger/ledger.h"

#include <stdexcept>

#include "src/crypto/sha256.h"
#include "src/tx/weight.h"
#include "src/util/serialize.h"

namespace daric::ledger {

namespace {

/// Short txid label for trace attributes (first 8 hex chars).
std::string txid_label(const Hash256& id) { return id.hex().substr(0, 8); }

}  // namespace

void Ledger::set_obs(obs::Tracer* tracer, obs::Registry* metrics) {
  tracer_ = tracer;
  if (metrics) {
    txs_posted_ = &metrics->counter("ledger.tx.posted");
    txs_confirmed_ = &metrics->counter("ledger.tx.confirmed");
    txs_rejected_ = &metrics->counter("ledger.tx.rejected");
    confirm_delay_ = &metrics->histogram("ledger.confirm_delay_rounds");
    txs_per_round_ = &metrics->histogram("ledger.txs_per_round");
  } else {
    txs_posted_ = txs_confirmed_ = txs_rejected_ = nullptr;
    confirm_delay_ = txs_per_round_ = nullptr;
  }
}

void Ledger::post(const tx::Transaction& t) {
  Round delay = delta_;
  if (delay_policy_) {
    delay = delay_policy_(t, delta_);
    if (delay < 0) delay = 0;
    if (delay > delta_) delay = delta_;
  }
  post_with_delay(t, delay);
}

void Ledger::post_with_delay(const tx::Transaction& t, Round delay) {
  if (delay < 0 || delay > delta_) throw std::invalid_argument("delay must be in [0, Δ]");
  records_.push_back({t.txid(), now_, now_ + delay, false, TxError::kOk});
  queue_.push_back({t, now_ + delay, records_.size() - 1});
  if (txs_posted_) txs_posted_->inc();
  if (tracer_ && tracer_->enabled())
    tracer_->emit(now_, obs::EventKind::kTxPost, "ledger", {}, {},
                  {obs::Attr::s("txid", txid_label(t.txid())),
                   obs::Attr::i("due", now_ + delay)});
}

void Ledger::advance_round() {
  ++now_;
  process_due();
}

void Ledger::advance_rounds(Round n) {
  for (Round i = 0; i < n; ++i) advance_round();
}

void Ledger::process_due() {
  // FIFO over the queue; entries due now (or earlier) are processed.
  std::uint64_t confirmed_this_round = 0;
  std::deque<Pending> keep;
  while (!queue_.empty()) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    if (p.due > now_) {
      keep.push_back(std::move(p));
      continue;
    }
    const TxError err = validate_transaction(p.tx, {utxos_, seen_txids_, now_, scheme_});
    records_[p.record_index].processed = true;
    records_[p.record_index].result = err;
    if (err != TxError::kOk) {
      if (txs_rejected_) txs_rejected_->inc();
      if (tracer_ && tracer_->enabled())
        tracer_->emit(now_, obs::EventKind::kTxReject, "ledger", {}, {},
                      {obs::Attr::s("txid", txid_label(p.tx.txid())),
                       obs::Attr::s("error", tx_error_name(err))});
      continue;
    }
    ++confirmed_this_round;
    if (txs_confirmed_) txs_confirmed_->inc();
    if (confirm_delay_) confirm_delay_->observe(now_ - records_[p.record_index].posted_round);
    if (tracer_ && tracer_->enabled())
      tracer_->emit(now_, obs::EventKind::kTxConfirm, "ledger", {}, {},
                    {obs::Attr::s("txid", txid_label(p.tx.txid())),
                     obs::Attr::i("weight",
                                  static_cast<std::int64_t>(tx::measure(p.tx).weight())),
                     obs::Attr::i("posted", records_[p.record_index].posted_round)});

    const Hash256 id = p.tx.txid();
    fees_total_ += transaction_fee(p.tx, utxos_);
    for (const tx::TxIn& in : p.tx.inputs) {
      utxos_.erase(in.prevout);
      spent_by_[in.prevout] = id;
    }
    for (std::uint32_t i = 0; i < p.tx.outputs.size(); ++i) {
      utxos_.add({{id, i}, p.tx.outputs[i], now_});
    }
    seen_txids_.insert(id);
    confirmed_round_[id] = now_;
    tx_by_id_[id] = p.tx;
    accepted_.push_back({now_, p.tx});
  }
  queue_ = std::move(keep);
  if (txs_per_round_) txs_per_round_->observe(static_cast<std::int64_t>(confirmed_this_round));
}

tx::OutPoint Ledger::mint(Amount value, const tx::Condition& cond) {
  if (value <= 0) throw std::invalid_argument("mint value must be positive");
  // Synthesize a unique txid from a counter (not a real transaction).
  Writer w;
  w.u64le(mint_counter_++);
  static const crypto::Sha256 kPrefix = crypto::Sha256::tagged_init("daric/mint");
  const Hash256 id = crypto::Sha256(kPrefix).update(w.data()).finalize();
  const tx::OutPoint op{id, 0};
  utxos_.add({op, {value, cond}, now_});
  seen_txids_.insert(id);
  minted_total_ += value;
  return op;
}

bool Ledger::is_confirmed(const Hash256& txid) const { return confirmed_round_.contains(txid); }

std::optional<Round> Ledger::confirmation_round(const Hash256& txid) const {
  const auto it = confirmed_round_.find(txid);
  if (it == confirmed_round_.end()) return std::nullopt;
  return it->second;
}

std::optional<tx::Transaction> Ledger::spender_of(const tx::OutPoint& op) const {
  const auto it = spent_by_.find(op);
  if (it == spent_by_.end()) return std::nullopt;
  return tx_by_id_.at(it->second);
}

std::optional<Hash256> Ledger::spender_txid(const tx::OutPoint& op) const {
  const auto it = spent_by_.find(op);
  if (it == spent_by_.end()) return std::nullopt;
  return it->second;
}

std::optional<TxError> Ledger::post_result(const Hash256& txid) const {
  // Latest record for this txid (a tx may be re-posted).
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->txid == txid && it->processed) return it->result;
  }
  return std::nullopt;
}

}  // namespace daric::ledger
