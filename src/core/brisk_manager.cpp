#include "core/brisk_manager.hpp"

namespace brisk {

Result<std::unique_ptr<BriskManager>> BriskManager::create(const ManagerConfig& config,
                                                           clk::Clock& clock) {
  Status valid = config.validate();
  if (!valid) return valid;
  ManagerConfig effective = config;
  if (effective.relay_enabled) {
    // A relay tier must not match CRE pairs locally: a consequence whose
    // reason lives behind a sibling relay would time out unrepaired and the
    // root's output would diverge from a flat deployment. Matching runs
    // exactly once, at the root.
    effective.ism.cre.forward_only = true;
  }

  const std::size_t bytes = shm::RingBuffer::region_size(effective.output_ring_capacity);
  auto region = effective.output_shm_name.empty()
                    ? shm::SharedRegion::create_anonymous(bytes)
                    : shm::SharedRegion::create_named(effective.output_shm_name, bytes);
  if (!region) return region.status();
  auto ring = shm::RingBuffer::init(region.value().data(), effective.output_ring_capacity);
  if (!ring) return ring.status();

  auto gateway = ism::ConsumerGateway::create(effective.gateway);
  if (!gateway) return gateway.status();
  // The classic output paths are built-in, unfiltered subscribers.
  Status st = gateway.value()->subscribe("shm", std::make_shared<ism::ShmSink>(ring.value()));
  if (!st) return st;
  if (!effective.picl_trace_path.empty()) {
    auto writer = picl::PiclWriter::open(effective.picl_trace_path, effective.picl_options);
    if (!writer) return writer.status();
    st = gateway.value()->subscribe(
        "picl", std::make_shared<ism::PiclFileSink>(std::move(writer).value()));
    if (!st) return st;
  }

  auto manager = std::unique_ptr<BriskManager>(new BriskManager(
      effective, std::move(region).value(), ring.value(), std::move(gateway).value()));
  if (effective.relay_enabled) {
    // Upstream egress rides the gateway like any other sink: it sees the
    // same post-merge, post-CRE ordered stream the shm ring sees, plus the
    // gateway's tick/drain propagation.
    auto relay = ism::RelayEgress::connect(effective.relay, clock);
    if (!relay) return relay.status();
    manager->relay_ = std::move(relay).value();
    st = manager->gateway_->subscribe("relay", manager->relay_);
    if (!st) return st;
  }
  auto ism = ism::Ism::start(effective.ism, clock, manager->gateway_);
  if (!ism) return ism.status();
  manager->ism_ = std::move(ism).value();
  manager->gateway_->register_metrics(manager->ism_->metrics());
  // One ring per daemon: gateway and relay events land in the ISM's flight
  // recorder so a single SIGUSR1 dump (or 0xFF03 drain) covers the process.
  manager->gateway_->set_flight_recorder(&manager->ism_->flight());
  if (manager->relay_) {
    manager->relay_->set_flight_recorder(&manager->ism_->flight());
  }
  return manager;
}

BriskManager::~BriskManager() {
  // The gateway's fan-out thread and the relay's egress thread record into
  // ism_'s flight recorder, and ism_ co-owns the gateway, so member order
  // alone cannot end them first: join them while the recorder is alive.
  if (gateway_) gateway_->stop_fanout();
  if (relay_) relay_->stop();
}

Result<consumers::ShmConsumer> BriskManager::make_consumer() {
  // Re-attach so the consumer has its own cursor view... the ring is SPSC:
  // the single consumer is whoever reads; multiple consumers would race.
  // Hand out the one ring; callers coordinate (typically exactly one tool).
  return consumers::ShmConsumer(output_ring_);
}

}  // namespace brisk
