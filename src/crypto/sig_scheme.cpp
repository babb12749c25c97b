#include "src/crypto/sig_scheme.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <system_error>
#include <thread>
#include <vector>

#include "src/crypto/ecdsa.h"
#include "src/crypto/schnorr.h"

namespace daric::crypto {

namespace {

bool verify_item(const SignatureScheme& scheme, const SigBatchItem& it) {
  return it.pre != nullptr ? scheme.verify_cached(*it.pre, it.msg, it.sig)
                           : scheme.verify(it.pk, it.msg, it.sig);
}

// The process-wide fan-out behind verify_batch (DESIGN.md → "Parallel
// batch verification"). A batch is published by bumping `epoch_`; the
// caller and every worker then claim items through the one index `next_`
// until none is left. Workers spin for kSpin after each batch — a futex
// wake-up costs about one verify, so a parked worker arrives too late to
// help — and then park on `epoch_`. Every spinning thread yields its CPU
// on each turn, so one that shares a CPU with the thread doing the work
// (the scheduler need not separate them at once) costs it little.
//
// Joining is a Dekker handshake on two seq_cst atomics: a worker bumps
// `active_` and only then reads `open_`; the caller clears `open_` and
// only then waits for `active_` to reach zero. A worker that still sees the
// batch open is therefore waited for, and one that arrives later never
// touches the items.
class VerifyPool {
 public:
  static constexpr int kMaxWorkers = 2;  // the largest Daric flush is 3 items
  static constexpr std::chrono::microseconds kSpin{2000};

  VerifyPool() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    const int cpus =
        sched_getaffinity(0, sizeof(allowed), &allowed) == 0 ? CPU_COUNT(&allowed) : 1;
    const int n = std::clamp(cpus - 1, 0, kMaxWorkers);
    workers_.reserve(n);
    try {
      for (int i = 0; i < n; ++i) workers_.emplace_back([this] { work(); });
    } catch (const std::system_error&) {
      // The system refused a thread: run with the workers it did start.
    }
  }
  VerifyPool(const VerifyPool&) = delete;
  VerifyPool& operator=(const VerifyPool&) = delete;

  ~VerifyPool() {
    stop_.store(true);
    epoch_.fetch_add(1);
    epoch_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  std::size_t workers() const { return workers_.size(); }

  /// Verifies `items` on this thread and the workers; nullopt when the
  /// pool has no workers or is serving another batch, and the caller must
  /// verify serially.
  std::optional<bool> run(const SignatureScheme& scheme, std::span<const SigBatchItem> items) {
    if (workers_.empty() || busy_.exchange(true, std::memory_order_acquire)) return std::nullopt;
    scheme_ = &scheme;
    items_ = items;
    error_ = nullptr;
    failed_.store(false, std::memory_order_relaxed);
    next_.store(0, std::memory_order_relaxed);
    ok_.store(true, std::memory_order_relaxed);
    open_.store(true);
    epoch_.fetch_add(1);
    epoch_.notify_all();  // no system call unless a worker is parked
    drain();
    open_.store(false);
    while (active_.load() != 0) std::this_thread::yield();
    const bool ok = ok_.load(std::memory_order_relaxed);
    const std::exception_ptr error = error_;
    busy_.store(false, std::memory_order_release);
    if (error) std::rethrow_exception(error);
    return ok;
  }

 private:
  // Claims and verifies items until none is left or one has failed. An
  // exception is kept for the caller, who rethrows it once every worker
  // has left the batch.
  void drain() {
    const std::size_t n = items_.size();
    std::size_t i;
    while (ok_.load(std::memory_order_relaxed) &&
           (i = next_.fetch_add(1, std::memory_order_relaxed)) < n) {
      try {
        if (!verify_item(*scheme_, items_[i])) ok_.store(false, std::memory_order_relaxed);
      } catch (...) {
        if (!failed_.exchange(true)) error_ = std::current_exception();
        ok_.store(false, std::memory_order_relaxed);
      }
    }
  }

  void work() {
    std::uint32_t seen = epoch_.load();
    for (;;) {
      const auto deadline = std::chrono::steady_clock::now() + kSpin;
      while (epoch_.load(std::memory_order_relaxed) == seen &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      epoch_.wait(seen);  // returns at once when the epoch has moved
      seen = epoch_.load();
      if (stop_.load()) return;
      active_.fetch_add(1);
      if (open_.load()) drain();
      active_.fetch_sub(1);
    }
  }

  std::atomic<bool> busy_{false}, open_{false}, stop_{false}, ok_{true}, failed_{false};
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<int> active_{0};
  std::atomic<std::size_t> next_{0};
  // The batch; written only while no worker is inside it (see above).
  const SignatureScheme* scheme_ = nullptr;
  std::span<const SigBatchItem> items_;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;  // last: the threads use every member above
};

VerifyPool& verify_pool() {
  static VerifyPool pool;
  return pool;
}

class SchnorrScheme final : public SignatureScheme {
 public:
  std::string name() const override { return "schnorr"; }
  std::size_t signature_size() const override { return kSchnorrSigSize; }
  Bytes sign(const Scalar& sk, const Hash256& msg) const override {
    return schnorr_sign(sk, msg);
  }
  bool verify(const Point& pk, const Hash256& msg, BytesView sig) const override {
    return schnorr_verify(pk, msg, sig);
  }
  Bytes sign_with(const KeyPair& kp, const Hash256& msg) const override {
    return schnorr_sign(kp, msg);
  }
  bool verify_cached(const PrecomputedPoint& pre, const Hash256& msg,
                     BytesView sig) const override {
    return schnorr_verify(pre, msg, sig);
  }
  bool supports_adaptor() const override { return true; }
};

class EcdsaScheme final : public SignatureScheme {
 public:
  std::string name() const override { return "ecdsa"; }
  std::size_t signature_size() const override { return kEcdsaSigSize; }
  Bytes sign(const Scalar& sk, const Hash256& msg) const override { return ecdsa_sign(sk, msg); }
  bool verify(const Point& pk, const Hash256& msg, BytesView sig) const override {
    return ecdsa_verify(pk, msg, sig);
  }
  bool supports_adaptor() const override { return false; }
};

}  // namespace

const SignatureScheme& schnorr_scheme() {
  static const SchnorrScheme s;
  return s;
}

const SignatureScheme& ecdsa_scheme() {
  static const EcdsaScheme s;
  return s;
}

OpCounters& op_counters() {
  static OpCounters c;
  return c;
}

Bytes SignatureScheme::sign_with(const KeyPair& kp, const Hash256& msg) const {
  return sign(kp.sk, msg);
}

bool SignatureScheme::verify_cached(const PrecomputedPoint& pre, const Hash256& msg,
                                    BytesView sig) const {
  return verify(pre.point(), msg, sig);
}

bool SignatureScheme::verify_batch(std::span<const SigBatchItem> items) const {
  if (items.size() > 1)
    if (const std::optional<bool> ok = verify_pool().run(*this, items)) return *ok;
  for (const SigBatchItem& it : items)
    if (!verify_item(*this, it)) return false;
  return true;
}

std::size_t verify_pool_workers() { return verify_pool().workers(); }

Bytes CountingScheme::sign(const Scalar& sk, const Hash256& msg) const {
  op_counters().signs.fetch_add(1, std::memory_order_relaxed);
  return inner_.sign(sk, msg);
}

bool CountingScheme::verify(const Point& pk, const Hash256& msg, BytesView sig) const {
  op_counters().verifies.fetch_add(1, std::memory_order_relaxed);
  return inner_.verify(pk, msg, sig);
}

Bytes CountingScheme::sign_with(const KeyPair& kp, const Hash256& msg) const {
  op_counters().signs.fetch_add(1, std::memory_order_relaxed);
  return inner_.sign_with(kp, msg);
}

bool CountingScheme::verify_cached(const PrecomputedPoint& pre, const Hash256& msg,
                                   BytesView sig) const {
  op_counters().verifies.fetch_add(1, std::memory_order_relaxed);
  return inner_.verify_cached(pre, msg, sig);
}

bool CountingScheme::verify_batch(std::span<const SigBatchItem> items) const {
  op_counters().verifies.fetch_add(items.size(), std::memory_order_relaxed);
  return inner_.verify_batch(items);
}

}  // namespace daric::crypto
