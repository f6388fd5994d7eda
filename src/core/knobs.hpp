// The collected tuning knobs of a BRISK deployment.
//
// "we added tuning knobs to many of BRISK's subsystems, so that users can
// trade-off among the various simple and complex IS performance metrics" —
// NodeConfig gathers the LIS-side knobs, ManagerConfig the ISM-side ones,
// and describe() renders any configuration for logs and experiment records.
//
// Each daemon knob is declared once, as one row of a knob table (knobs.cpp):
// the daemons' flags, their --help text and range checks, the single-field
// checks of validate() and the describe() dump are all generated from the
// rows. Defaults live only in the config structs.
#pragma once

#include <span>
#include <string>
#include <variant>

#include "clock/sync_service.hpp"
#include "ism/gateway.hpp"
#include "ism/ism.hpp"
#include "ism/relay.hpp"
#include "lis/exs_config.hpp"
#include "sim/fault_injector.hpp"

namespace brisk {

struct NodeConfig {
  NodeId node = 0;
  /// Producer slots in the node's ring directory (max concurrent user
  /// processes/threads using internal sensors on this node).
  std::uint32_t sensor_slots = 8;
  /// Data bytes per producer ring.
  std::uint32_t ring_capacity = 1u << 20;
  /// Name for a POSIX shm segment ("/brisk-node-3") so independently
  /// started executables can attach; empty = anonymous (fork-shared).
  std::string shm_name;
  /// Fraction of records carrying an end-to-end trace annotation (0 = off,
  /// 1 = every record). Applied per-record by sensors this node creates.
  double trace_sample_rate = 0.0;
  lis::ExsConfig exs;

  [[nodiscard]] Status validate() const;
};

struct ManagerConfig {
  ism::IsmConfig ism;
  /// Data bytes of the shared-memory output ring consumers read.
  std::uint32_t output_ring_capacity = 1u << 20;
  /// Name for the output shm segment; empty = anonymous (fork-shared).
  std::string output_shm_name;
  /// Optional PICL ASCII trace file ("" = disabled).
  std::string picl_trace_path;
  picl::PiclOptions picl_options;
  /// Consumer subscription gateway (tcp_enabled starts the TCP listener;
  /// the in-process side is always on — the shm ring and PICL sink are
  /// built-in subscribers).
  ism::GatewayConfig gateway;
  /// Federation: when enabled this ISM is a *relay* — its post-merge,
  /// post-CRE ordered output is re-batched onto an upstream link to the
  /// parent ISM (relay.parent_host:parent_port), and local CRE matching is
  /// switched to forward-only so matching happens exactly once, at the root.
  bool relay_enabled = false;
  ism::RelayConfig relay;

  [[nodiscard]] Status validate() const;
};

/// Human-readable knob dump (one "key = value" per line).
std::string describe(const NodeConfig& config);
std::string describe(const ManagerConfig& config);

/// A knob's value as its flag, its range check and its dump line see it.
using KnobValue = std::variant<long long, double, bool, std::string>;

/// How a knob row reads and writes its knob. `get` also gives the flag its
/// default, read from a default-constructed Config. A row without `set` is
/// a flag the daemon main reads itself.
template <typename Config>
struct KnobField {
  KnobValue (*get)(const Config&) = nullptr;
  Status (*set)(Config&, const KnobValue&) = nullptr;
};

/// One row of a knob table. Tables list their rows in --help order;
/// describe() prints the rows that have a key in ascending `dump` order.
template <typename Config>
struct Knob {
  const char* flag;  // command-line name; nullptr for a knob only the dump shows
  const char* key;   // describe() key; nullptr for a flag the dump leaves out
  int dump;
  KnobField<Config> field;
  long long min;     // inclusive range of a numeric knob
  long long max;
  const char* help;
  bool (*shown)(const Config&) = nullptr;  // describe() prints the row only when true
};

/// "" when `value` is text, a boolean or a number in [min, max]; otherwise
/// "must be in [min, max], got <value>".
std::string knob_range_error(const KnobValue& value, long long min, long long max);

/// The knob tables: brisk_ism's, brisk_exs's, and the outbound
/// fault-injection flags both daemons declare after their own.
std::span<const Knob<ManagerConfig>> manager_knobs();
std::span<const Knob<NodeConfig>> node_knobs();
std::span<const Knob<sim::FaultPlan>> fault_knobs();

}  // namespace brisk
