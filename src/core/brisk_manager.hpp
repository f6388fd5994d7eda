// BriskManager: the manager-side facade of the public API.
//
// Owns the ISM, its consumer gateway, the shared-memory output ring, and
// the optional PICL trace sink; hands out consumers attached to the output
// ring or subscribed over the gateway's TCP port.
//
//   brisk::ManagerConfig cfg;
//   auto manager = brisk::BriskManager::create(cfg);
//   std::uint16_t port = manager.value()->port();   // give this to the EXSes
//   auto consumer = manager.value()->make_consumer();
//   ... manager.value()->run() in the ISM process/thread ...
#pragma once

#include <memory>

#include "consumers/shm_consumer.hpp"
#include "core/knobs.hpp"
#include "ism/gateway.hpp"
#include "ism/ism.hpp"
#include "shm/shared_region.hpp"

namespace brisk {

class BriskManager {
 public:
  static Result<std::unique_ptr<BriskManager>> create(
      const ManagerConfig& config, clk::Clock& clock = clk::SystemClock::instance());

  ~BriskManager();
  BriskManager(const BriskManager&) = delete;
  BriskManager& operator=(const BriskManager&) = delete;

  /// Registers an extra output path as an unfiltered gateway subscriber
  /// (e.g. a vo::VoSink) under its own name(). Fails on a duplicate name.
  Status add_sink(std::shared_ptr<ism::Sink> sink) {
    if (!sink) return Status(Errc::invalid_argument, "null sink");
    std::string name = sink->name();
    return gateway_->subscribe(std::move(name), std::move(sink));
  }
  /// Registers under an explicit name, optionally with a filter.
  Status add_sink(std::string name, std::shared_ptr<ism::Sink> sink,
                  ism::SubscriptionOptions options = {}) {
    return gateway_->subscribe(std::move(name), std::move(sink), std::move(options));
  }
  /// The subscription gateway: per-subscriber filters, aggregation
  /// subscriptions, and (when enabled) the TCP consumer port.
  [[nodiscard]] ism::ConsumerGateway& gateway() noexcept { return *gateway_; }

  [[nodiscard]] std::uint16_t port() const noexcept { return ism_->port(); }
  /// TCP consumer port (0 when the gateway listener is disabled).
  [[nodiscard]] std::uint16_t consumer_port() const noexcept {
    return gateway_->consumer_port();
  }
  [[nodiscard]] ism::Ism& ism() noexcept { return *ism_; }
  /// The upstream relay egress when this manager runs as a relay tier
  /// (config.relay_enabled); null otherwise.
  [[nodiscard]] const std::shared_ptr<ism::RelayEgress>& relay() const noexcept {
    return relay_;
  }

  /// A consumer attached to the shared-memory output ring.
  Result<consumers::ShmConsumer> make_consumer();

  Status run() { return ism_->run(); }
  Status run_for(TimeMicros duration) { return ism_->run_for(duration); }
  void stop() noexcept { ism_->stop(); }
  Status drain() { return ism_->drain(); }

  [[nodiscard]] const ManagerConfig& config() const noexcept { return config_; }

 private:
  BriskManager(ManagerConfig config, shm::SharedRegion output_region,
               shm::RingBuffer output_ring, std::shared_ptr<ism::ConsumerGateway> gateway)
      : config_(std::move(config)),
        output_region_(std::move(output_region)),
        output_ring_(output_ring),
        gateway_(std::move(gateway)) {}

  ManagerConfig config_;
  shm::SharedRegion output_region_;
  shm::RingBuffer output_ring_;
  std::shared_ptr<ism::ConsumerGateway> gateway_;
  std::shared_ptr<ism::RelayEgress> relay_;
  std::unique_ptr<ism::Ism> ism_;
};

}  // namespace brisk
