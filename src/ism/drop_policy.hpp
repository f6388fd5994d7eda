// Ingress flow control.
//
// Fig. 1 shows both a data-flow and a control-flow path between the EXS and
// the ISM, and an "event dropping" stage at the ISM: when the target system
// out-produces the IS, BRISK sheds load explicitly and accounts for it
// rather than stalling the target ("large volumes of instrumentation data
// [may] monopolize IS resources"). TokenBucket is the rate limiter the ISM
// can apply per connection.
#pragma once

#include "common/types.hpp"

namespace brisk::ism {

/// Classic token bucket over the microsecond clock: `rate_per_sec` tokens
/// accrue per second up to `burst`; each admitted record spends one.
class TokenBucket {
 public:
  TokenBucket(double rate_per_sec, double burst) noexcept
      : rate_per_sec_(rate_per_sec), burst_(burst), tokens_(burst) {}

  /// True (and spends a token) if a record may pass at time `now`.
  bool admit(TimeMicros now) noexcept {
    refill(now);
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  [[nodiscard]] double tokens() const noexcept { return tokens_; }

 private:
  void refill(TimeMicros now) noexcept {
    if (!primed_) {
      primed_ = true;
      last_refill_ = now;
      return;
    }
    const TimeMicros dt = now - last_refill_;
    if (dt <= 0) return;
    last_refill_ = now;
    tokens_ += rate_per_sec_ * static_cast<double>(dt) / 1e6;
    if (tokens_ > burst_) tokens_ = burst_;
  }

  double rate_per_sec_;
  double burst_;
  double tokens_;
  TimeMicros last_refill_ = 0;
  bool primed_ = false;
};

}  // namespace brisk::ism
