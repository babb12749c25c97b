// Layer probes timed from outside the library.
//
// Every probe is a pass-through over one of the library's public seams:
// a SignatureScheme wrapper, a DurabilityHook wrapper, a StorageBackend
// wrapper and a FaultInjector that only timestamps. The probes are always
// installed; they read the clock only while `Probes::tracing` is set, so an
// untraced run pays one forwarding call per layer crossing and nothing else.
//
// The benchmark is single-threaded, so all probe state is plain data.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "src/crypto/sig_scheme.h"
#include "src/daric/protocol.h"
#include "src/sim/network.h"
#include "src/store/backend.h"
#include "src/store/channel_store.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

/// The benchmark-level span a layer call is attributed to.
enum class Span : std::uint8_t { kOther, kCreate, kUpdate, kClose, kPay, kWatch, kReplay };
inline constexpr std::size_t kSpans = 7;

enum class CryptoOp : std::uint8_t { kSign, kVerify, kBatch };
inline constexpr std::size_t kCryptoOps = 3;

/// Daric update message names, in protocol order (msg1..msg6).
inline constexpr std::array<const char*, 6> kDaricUpdateMsgs = {
    "updateReq", "updateInfo", "updateComP", "updateComQ", "revokeP", "revokeQ"};

struct Probes {
  bool tracing = false;
  Span span = Span::kOther;
  /// True while a measured end-to-end operation is running.
  bool in_op = false;

  // crypto: [op][span]
  std::uint64_t crypto_calls[kCryptoOps][kSpans] = {};
  std::uint64_t crypto_items[kCryptoOps][kSpans] = {};
  std::int64_t crypto_ns[kCryptoOps][kSpans] = {};
  std::int64_t span_wall_ns[kSpans] = {};

  // Layer time inside measured operations, by layer. The layers are
  // disjoint: none of crypto, store and tower calls into another.
  enum Layer : std::uint8_t { kCrypto, kStore, kTower, kLayers };
  std::int64_t layer_ns_in_op[kLayers] = {};

  // store
  std::uint64_t persists = 0;
  std::int64_t persist_ns = 0;
  std::uint64_t append_bytes = 0;
  std::uint64_t replaces = 0;

  // tower: watch() calls and round-hook passes timed by the workloads
  std::uint64_t tower_watches = 0, tower_rounds = 0;
  std::int64_t tower_watch_ns = 0, tower_round_ns = 0;

  // Daric update message steps: set step_mark to the update's start time
  // before calling update(); the injector attributes each gap to the next
  // message and the caller books the remainder after msg6 as the tail.
  std::int64_t step_mark = 0;
  std::int64_t step_ns[6] = {};
  std::int64_t step_tail_ns = 0;
  std::uint64_t step_updates = 0;

  void add_layer(Layer l, std::int64_t ns) {
    if (in_op) layer_ns_in_op[l] += ns;
  }

  /// Brackets one Daric update the benchmark calls itself (traced runs).
  void begin_steps(std::int64_t t0) { step_mark = t0; }
  void end_steps(std::int64_t t1) {
    step_tail_ns += t1 - step_mark;
    step_mark = 0;
    ++step_updates;
  }
};

Probes& probes();

/// Sets the current span for its scope and books its wall time.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span s) : prev_(probes().span), t0_(probes().tracing ? now_ns() : 0) {
    probes().span = s;
  }
  ~ScopedSpan() {
    Probes& p = probes();
    if (p.tracing) p.span_wall_ns[static_cast<std::size_t>(p.span)] += now_ns() - t0_;
    p.span = prev_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span prev_;
  std::int64_t t0_;
};

/// SignatureScheme wrapper that delegates every virtual (the way
/// crypto::CountingScheme does) and times each call when tracing.
class TimingScheme final : public daric::crypto::SignatureScheme {
 public:
  explicit TimingScheme(const daric::crypto::SignatureScheme& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::size_t signature_size() const override { return inner_.signature_size(); }
  daric::Bytes sign(const daric::crypto::Scalar& sk, const daric::Hash256& msg) const override {
    const std::int64_t t = start();
    daric::Bytes out = inner_.sign(sk, msg);
    finish(CryptoOp::kSign, t, 1);
    return out;
  }
  bool verify(const daric::crypto::Point& pk, const daric::Hash256& msg,
              daric::BytesView sig) const override {
    const std::int64_t t = start();
    const bool ok = inner_.verify(pk, msg, sig);
    finish(CryptoOp::kVerify, t, 1);
    return ok;
  }
  daric::Bytes sign_with(const daric::crypto::KeyPair& kp,
                         const daric::Hash256& msg) const override {
    const std::int64_t t = start();
    daric::Bytes out = inner_.sign_with(kp, msg);
    finish(CryptoOp::kSign, t, 1);
    return out;
  }
  bool verify_cached(const daric::crypto::PrecomputedPoint& pre, const daric::Hash256& msg,
                     daric::BytesView sig) const override {
    const std::int64_t t = start();
    const bool ok = inner_.verify_cached(pre, msg, sig);
    finish(CryptoOp::kVerify, t, 1);
    return ok;
  }
  bool supports_adaptor() const override { return inner_.supports_adaptor(); }
  bool supports_batch_verify() const override { return inner_.supports_batch_verify(); }
  bool verify_batch(std::span<const daric::crypto::SigBatchItem> items) const override {
    const std::int64_t t = start();
    const bool ok = inner_.verify_batch(items);
    finish(CryptoOp::kBatch, t, items.size());
    return ok;
  }

 private:
  static std::int64_t start() { return probes().tracing ? now_ns() : 0; }
  static void finish(CryptoOp op, std::int64_t t0, std::size_t items) {
    Probes& p = probes();
    if (!p.tracing) return;
    const std::int64_t ns = now_ns() - t0;
    const auto o = static_cast<std::size_t>(op);
    const auto s = static_cast<std::size_t>(p.span);
    ++p.crypto_calls[o][s];
    p.crypto_items[o][s] += items;
    p.crypto_ns[o][s] += ns;
    p.add_layer(Probes::kCrypto, ns);
  }

  const daric::crypto::SignatureScheme& inner_;
};

/// StorageBackend wrapper counting appended bytes and whole-image
/// replacements (the channel store's compactions).
class CountingBackend final : public daric::store::StorageBackend {
 public:
  std::size_t size() const override { return inner_.size(); }
  void append(daric::BytesView data) override {
    probes().append_bytes += data.size();
    inner_.append(data);
  }
  void sync() override { inner_.sync(); }
  daric::Bytes read(std::size_t off, std::size_t len) const override {
    return inner_.read(off, len);
  }
  void truncate(std::size_t new_size) override { inner_.truncate(new_size); }
  void replace(daric::BytesView contents) override {
    ++probes().replaces;
    inner_.replace(contents);
  }

 private:
  daric::store::MemoryBackend inner_;
};

/// DurabilityHook wrapper around a ChannelStore: times every persist and
/// reports which channel it touched.
class TimedStore final : public daric::daricch::DurabilityHook {
 public:
  using Observer = std::function<void(const daric::daricch::DaricParty&)>;
  /// `on_persist` (may be empty) sees every persisted party.
  explicit TimedStore(daric::daricch::DurabilityHook& inner, Observer on_persist = {})
      : inner_(inner), on_persist_(std::move(on_persist)) {}

  void persist(const daric::daricch::DaricParty& p) override {
    Probes& pr = probes();
    const std::int64_t t = pr.tracing ? now_ns() : 0;
    inner_.persist(p);
    ++pr.persists;
    if (pr.tracing) {
      const std::int64_t ns = now_ns() - t;
      pr.persist_ns += ns;
      pr.add_layer(Probes::kStore, ns);
    }
    if (on_persist_) on_persist_(p);
  }
  void closed(const daric::daricch::DaricParty& p) override { inner_.closed(p); }

 private:
  daric::daricch::DurabilityHook& inner_;
  Observer on_persist_;
};

/// FaultInjector that delivers every message untouched and only
/// timestamps the Daric update messages (installed in traced runs).
class StepClock final : public daric::sim::FaultInjector {
 public:
  daric::sim::MessageAction on_message(daric::Round, daric::sim::PartyId,
                                       const std::string& type) override {
    Probes& p = probes();
    if (p.step_mark == 0) return {};
    for (std::size_t k = 0; k < kDaricUpdateMsgs.size(); ++k) {
      if (type == kDaricUpdateMsgs[k]) {
        const std::int64_t t = now_ns();
        p.step_ns[k] += t - p.step_mark;
        p.step_mark = t;
        break;
      }
    }
    return {};
  }
  daric::Round post_delay(daric::Round, daric::Round delta) override { return delta; }
};

}  // namespace perfbench
