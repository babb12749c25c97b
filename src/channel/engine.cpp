#include "src/channel/engine.h"

#include "src/obs/event.h"

namespace daric::channel {

bool Engine::run_until_closed(Round max_rounds) {
  for (Round r = 0; r < max_rounds; ++r) {
    if (closed()) return true;
    env_.advance_round();
  }
  return closed();
}

int Engine::send_reliable(sim::PartyId from, const char* type) {
  for (int attempt = 0; attempt < kMaxSendAttempts; ++attempt) {
    if (attempt > 0) {
      obs_.retries->inc();
      if (env_.tracer().enabled())
        env_.tracer().emit(env_.now(), obs::EventKind::kMsgRetry, name_, params().id,
                           sim::party_name(from),
                           {obs::Attr::s("type", type), obs::Attr::i("attempt", attempt)});
    }
    const auto d = env_.transmit(from, type);
    if (d.copies > 0) return d.copies;
    // Dropped: the sender's ack timeout fires and it re-sends.
  }
  return 0;
}

int Engine::send_or_close(sim::PartyId from, const char* type) {
  const int copies = send_reliable(from, type);
  if (copies == 0) {
    force_close(from);
    run_until_closed();
  }
  return copies;
}

}  // namespace daric::channel
