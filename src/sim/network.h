// Authenticated message channel (the F_GDC of Appendix C) with an explicit
// delivery queue. Delivery takes one round by default; a FaultInjector may
// additionally drop, delay (within a bounded budget) or duplicate any
// message. Without an injector the behavior is exactly the guaranteed
// 1-round delivery the protocol engines were written against.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/sim/party.h"
#include "src/util/bytes.h"

namespace daric::sim {

/// What the adversary does to one transmitted message.
enum class MessageFate : std::uint8_t { kDeliver, kDrop, kDelay, kDuplicate };

const char* message_fate_name(MessageFate f);

struct MessageAction {
  MessageFate fate = MessageFate::kDeliver;
  Round delay = 0;  // extra rounds on top of the 1-round transit (kDelay)
};

/// Per-run fault policy consulted by the environment. Implementations must
/// be deterministic functions of their construction state so that a run is
/// replayable from a serialized schedule.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// Called once per transmit attempt, in global send order (re-sends of a
  /// dropped message consult the injector again under the next index).
  virtual MessageAction on_message(Round now, PartyId from, const std::string& type) = 0;
  /// Adversarial confirmation delay τ for an honest ledger post. Return
  /// value is clamped to [0, Δ] by the ledger.
  virtual Round post_delay(Round now, Round delta) = 0;
};

/// Messages currently in transit (sent but not yet handed to the receiver).
/// The environment drains entries as the clock passes their delivery round;
/// the queue makes the delay explicit instead of implied by control flow.
class DeliveryQueue {
 public:
  struct InFlight {
    Round deliver_round = 0;
    int copies = 1;
  };

  void push(InFlight m) { in_flight_.push_back(m); }

  /// Removes and returns the number of copies of messages due at `now`
  /// (0 if nothing is due yet).
  int drain_due(Round now) {
    int copies = 0;
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      if (it->deliver_round <= now) {
        copies += it->copies;
        it = in_flight_.erase(it);
      } else {
        ++it;
      }
    }
    return copies;
  }

 private:
  std::deque<InFlight> in_flight_;
};

}  // namespace daric::sim
