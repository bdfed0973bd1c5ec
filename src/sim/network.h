// Simulated network connecting the hosts of a distributed system.
//
// Stands in for the paper's physical network (DESIGN.md §2): every pair of
// hosts may have a link with a reliability (message survival probability),
// a bandwidth (KB/s, transfers are serialized per link), and a propagation
// delay. Links can be severed and restored at runtime to script the
// "network disconnections during system execution" the paper's motivating
// scenario is built around.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "model/deployment_model.h"
#include "model/ids.h"
#include "obs/instruments.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace dif::sim {

/// Runtime state of one physical link.
struct LinkState {
  double reliability = 0.0;   // delivery probability in [0, 1]
  double bandwidth = 0.0;     // KB/s; <= 0 means no link
  double delay_ms = 0.0;      // propagation delay
  bool severed = false;       // hard partition overrides everything
};

/// Demultiplexing id of a message's traffic class. The network never reads
/// it; each receiver names its own channels (prism/distribution.h).
using Channel = std::uint32_t;

/// A message in flight between two hosts. 48 bytes, so a delivery task that
/// owns it (plus the network pointer) fits sim::Task's inline buffer.
struct NetMessage {
  model::HostId from = 0;
  model::HostId to = 0;
  Channel channel = 0;
  /// Opaque payload (serialized Prism-MW events, component state, ...).
  std::vector<std::uint8_t> payload;
  /// Size used for bandwidth accounting (KB); may exceed payload.size()
  /// to model application data not literally materialized in the test.
  double size_kb = 0.0;
};

/// Delivery counters, total and per link.
struct MessageStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;      // lost to reliability
  std::uint64_t unroutable = 0;   // no link / severed
  double kb_sent = 0.0;
  double kb_delivered = 0.0;
};

/// One link's share of the drop count (canonical pair, a < b).
struct LinkDrops {
  model::HostId a = 0;
  model::HostId b = 0;
  std::uint64_t dropped = 0;
};

/// A fuzz hook's verdict on one outbound message (chaos/fuzz.h). Applied
/// after the routability checks and before the reliability draw, so a
/// mutation never masks (or is masked by) an unroutable verdict:
///   drop        the message dies on the link (charged like a loss)
///   delay_ms    extra hold before the transfer starts (a large value past
///               later messages' arrivals is a reorder)
///   duplicates  extra copies re-entering send() after duplicate_gap_ms
///               each; replayed copies are never re-fuzzed
struct FuzzDecision {
  bool drop = false;
  double delay_ms = 0.0;
  int duplicates = 0;
  double duplicate_gap_ms = 0.0;
};

class SimNetwork {
 public:
  /// The simulator must outlive the network.
  SimNetwork(Simulator& simulator, std::size_t host_count,
             std::uint64_t seed);

  /// Builds a network whose links mirror `m`'s physical links.
  static SimNetwork from_model(Simulator& simulator,
                               const model::DeploymentModel& m,
                               std::uint64_t seed);

  [[nodiscard]] std::size_t host_count() const noexcept { return k_; }

  // --- topology -----------------------------------------------------------

  void set_link(model::HostId a, model::HostId b, LinkState state);
  [[nodiscard]] const LinkState& link(model::HostId a, model::HostId b) const;

  /// Severs / restores a link without losing its parameters.
  void sever(model::HostId a, model::HostId b);
  void restore(model::HostId a, model::HostId b);

  /// Host failure injection: a down host can neither send nor receive on
  /// any of its links (all other link state is preserved and comes back
  /// when the host recovers). Models device crashes/battery death — the
  /// dependability events the paper's framework reacts to.
  void fail_host(model::HostId host);
  void recover_host(model::HostId host);
  [[nodiscard]] bool host_up(model::HostId host) const;

  /// Can a message currently travel between the two hosts?
  [[nodiscard]] bool reachable(model::HostId a, model::HostId b) const;

  /// Current transfer-queue backlog on the (a, b) link: how long a message
  /// sent right now would wait for the serialized transfer slot before its
  /// own transfer starts (0 for local pairs and idle links). The traffic
  /// engine charges user requests this wait so they queue behind bulk
  /// migration transfers without materializing their own bytes.
  [[nodiscard]] double backlog_ms(model::HostId a, model::HostId b) const;

  // --- messaging ----------------------------------------------------------

  /// The delivered message is the receiver's to take apart (it is
  /// discarded after the call), e.g. to send its payload onward.
  using Receiver = std::function<void(NetMessage&)>;

  /// Installs the receiver invoked when a message arrives at `host`.
  void set_receiver(model::HostId host, Receiver receiver);

  /// Sends `msg`. Local (from == to) messages are delivered next tick with
  /// no loss. Remote messages are dropped with probability 1 - reliability;
  /// surviving ones arrive after delay + serialized transfer time. Returns
  /// false when the message was immediately unroutable.
  ///
  /// A surviving message is moved into its delivery task, which fits
  /// sim::Task's inline buffer, so the send path copies no payload and
  /// allocates nothing. The message and its payload are destroyed when the
  /// delivery fires, or at once when Simulator::clear() drops it.
  bool send(NetMessage msg);

  [[nodiscard]] const MessageStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept;

  /// Drops charged to the (a, b) link: reliability losses plus messages that
  /// were in flight on the link when the receiver crashed. Local (a == a)
  /// deliveries are never charged to a link.
  [[nodiscard]] std::uint64_t link_dropped(model::HostId a,
                                           model::HostId b) const;
  /// Every link with at least one drop, in canonical (a, b) order —
  /// campaign reports use this to localize lossy links.
  [[nodiscard]] std::vector<LinkDrops> dropped_links() const;

  /// Installs (or, with an empty function, removes) the message-level fuzz
  /// interceptor. The hook sees every routable remote message exactly once
  /// — duplicates it injects are replayed verbatim, not re-fuzzed — and
  /// returning nullopt passes the message through untouched. Fuzz drops are
  /// charged to the link like reliability losses ("net.fuzz.*" counters
  /// additionally attribute every mutation).
  using FuzzHook = std::function<std::optional<FuzzDecision>(const NetMessage&)>;
  void set_fuzz_hook(FuzzHook hook) { fuzz_hook_ = std::move(hook); }

  /// Attaches observability sinks. Counters mirror MessageStats under
  /// "net.*"; each link additionally feeds a queueing-delay histogram
  /// ("net.link.<lo>-<hi>.queue_ms": time a message waited for the link's
  /// serialized transfer slot, excluding propagation delay). Metric handles
  /// are resolved here once — the send path must not rebuild metric names
  /// per message (registry references are allocation-stable).
  void set_instruments(obs::Instruments instruments);

  [[nodiscard]] Simulator& simulator() noexcept { return sim_; }

 private:
  /// Pre-resolved "net.*" metric handles; null when observability is off.
  struct CachedMetrics {
    obs::Counter* sent = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* unroutable = nullptr;
    obs::Counter* fuzz_duplicated = nullptr;
    obs::Counter* fuzz_dropped = nullptr;
    obs::Counter* fuzz_delayed = nullptr;
    obs::Gauge* kb_sent = nullptr;
    obs::Gauge* kb_delivered = nullptr;
    obs::Histogram* queue_ms = nullptr;
  };

  [[nodiscard]] std::size_t index(model::HostId a, model::HostId b) const;
  /// Schedules a delivery task that owns `msg`.
  void deliver_after(double delay_ms, NetMessage msg);
  void deliver(NetMessage& m);
  /// The (lazily created) per-link queue-delay histogram, or null when
  /// metrics are off. Lazy because only links that actually carry traffic
  /// should appear in the registry (k^2 histograms would swamp it).
  [[nodiscard]] obs::Histogram* link_queue_histogram(std::size_t li,
                                                     model::HostId from,
                                                     model::HostId to);

  Simulator& sim_;
  std::size_t k_;
  std::vector<LinkState> links_;        // canonical-pair square matrix
  std::vector<TimePoint> link_free_;    // per-link transfer queue tail
  std::vector<std::uint64_t> link_dropped_;  // per-link share of dropped
  std::vector<bool> host_up_;
  std::vector<Receiver> receivers_;
  util::Xoshiro256ss rng_;
  MessageStats stats_;
  obs::Instruments obs_;
  CachedMetrics metric_;
  std::vector<obs::Histogram*> link_queue_ms_;  // lazy per-link handles
  FuzzHook fuzz_hook_;
  bool fuzz_replay_ = false;  // true while re-sending an injected duplicate
};

static_assert(sizeof(NetMessage) == 48);

}  // namespace dif::sim
