#include "prism/distribution.h"

#include <algorithm>
#include <memory>

#include "prism/architecture.h"
#include "util/logging.h"

namespace dif::prism {

namespace {
/// Marks events that already crossed the network once (no re-flooding).
constexpr const char* kRemoteMark = "__remote";
}  // namespace

DistributionConnector::DistributionConnector(std::string name,
                                             sim::SimNetwork& network,
                                             model::HostId host)
    : Connector(std::move(name)), network_(network), host_(host) {
  network_.set_receiver(host_,
                        [this](sim::NetMessage& m) { on_net_message(m); });
}

DistributionConnector::~DistributionConnector() {
  network_.set_receiver(host_, nullptr);
}

void DistributionConnector::add_peer(model::HostId peer) {
  if (peer != host_ && !std::count(peers_.begin(), peers_.end(), peer))
    peers_.push_back(peer);
}

void DistributionConnector::remove_peer(model::HostId peer) {
  std::erase(peers_, peer);
}

void DistributionConnector::set_next_hop(model::HostId destination,
                                         model::HostId via) {
  if (destination != host_) next_hops_[destination] = via;
}

void DistributionConnector::set_location(const std::string& component,
                                         model::HostId host) {
  locations_[component] = host;
}

std::optional<model::HostId> DistributionConnector::location(
    const std::string& component) const {
  const auto it = locations_.find(component);
  if (it == locations_.end()) return std::nullopt;
  return it->second;
}

sim::NetMessage DistributionConnector::remote_message(
    const Event& event) const {
  sim::NetMessage message;
  message.from = host_;
  message.channel = kEventChannel;
  message.payload = event.serialize_flagged(kRemoteMark);
  // Bandwidth accounting: events that carry a whole component are charged
  // the component's memory footprint, not just the serialized control
  // state (the real Prism-MW ships code + heap image; our simulated
  // components only materialize a token state blob).
  message.size_kb = std::max(event.size_kb_flagged(kRemoteMark),
                             event.get_double("memory_kb").value_or(0.0));
  return message;
}

void DistributionConnector::forward_remote(sim::NetMessage message,
                                           model::HostId destination) {
  message.to = destination;
  // reachable() is exactly send()'s routability verdict. Only a message
  // about to be refused needs a copy: the send still happens (and counts
  // as unroutable) while the copy waits in the disconnected peer's queue,
  // retried until the link returns.
  if (store_and_forward_ && !network_.reachable(host_, destination)) {
    std::deque<sim::NetMessage>& queue = queues_[destination];
    if (queue.size() >= max_queued_) queue.pop_front();
    queue.push_back(message);
    network_.send(std::move(message));
    schedule_flush();
    return;
  }
  if (!network_.send(std::move(message))) ++undeliverable_remote_;
}

void DistributionConnector::enable_store_and_forward(double retry_interval_ms,
                                                     std::size_t max_queued) {
  store_and_forward_ = true;
  flush_interval_ms_ = retry_interval_ms;
  max_queued_ = max_queued;
}

std::size_t DistributionConnector::queued_messages() const {
  std::size_t total = 0;
  for (const auto& [peer, queue] : queues_) total += queue.size();
  return total;
}

void DistributionConnector::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  network_.simulator().schedule_after(flush_interval_ms_, [this] {
    flush_scheduled_ = false;
    flush_queues();
    if (queued_messages() > 0) schedule_flush();
  });
}

void DistributionConnector::flush_queues() {
  for (auto& [peer, queue] : queues_) {
    while (!queue.empty() && network_.reachable(host_, peer)) {
      sim::NetMessage message = std::move(queue.front());
      queue.pop_front();
      ++flushed_;
      network_.send(std::move(message));
    }
  }
}

void DistributionConnector::route(const std::shared_ptr<const Event>& shared,
                                  Component* sender) {
  const Event& event = *shared;
  notify_received(event);
  deliver_locally(shared, sender);

  const bool arrived_from_network = event.get_bool(kRemoteMark).value_or(false);
  if (arrived_from_network) return;  // never re-forward remote events

  if (!event.to().empty()) {
    // Directed event: if the destination is local, local delivery covered
    // it; otherwise forward toward its host.
    if (architecture() && architecture()->find_component(event.to())) return;
    const std::optional<model::HostId> destination = location(event.to());
    if (!destination || *destination == host_) {
      ++undeliverable_remote_;
      util::log_debug("prism.dist",
                      "no known location for '", event.to(), "'");
      return;
    }
    const auto is_peer = [this](model::HostId h) {
      return std::count(peers_.begin(), peers_.end(), h) > 0;
    };
    // Next-hop relay is a control-plane overlay: only meta components
    // (admins, the deployer) are chased across multiple hops, because the
    // redeployment and ownership protocols must reach every host. Workload
    // traffic keeps the paper's data-plane model — direct link or mediated
    // by the master — so multi-hop relays do not load links the deployment
    // model says the interaction never crosses.
    const bool meta = event.to().rfind("__", 0) == 0;
    if (is_peer(*destination)) {
      forward_remote(remote_message(event), *destination);
    } else if (mediator_ && *mediator_ != host_ && is_peer(*mediator_)) {
      // Not directly connected: the Deployer's host mediates (paper §4.3).
      forward_remote(remote_message(event), *mediator_);
    } else if (const auto hop = meta ? next_hops_.find(*destination)
                                     : next_hops_.end();
               hop != next_hops_.end()) {
      // No usable mediator (we *are* the mediator host, or it is not
      // adjacent either): forward along the static next-hop route. The
      // receiving host's admin re-routes the event onward.
      forward_remote(remote_message(event), hop->second);
    } else if (mediator_ && *mediator_ != host_) {
      forward_remote(remote_message(event), *mediator_);
    } else {
      ++undeliverable_remote_;
    }
    return;
  }

  // Broadcast: flood to every peer, serialized once (each message owns its
  // payload, so every peer but the last gets a copy).
  if (peers_.empty()) return;
  sim::NetMessage message = remote_message(event);
  for (std::size_t i = 0; i + 1 < peers_.size(); ++i)
    forward_remote(message, peers_[i]);
  forward_remote(std::move(message), peers_.back());
}

void DistributionConnector::resend(Event event) {
  event.set(kRemoteMark, false);
  route(std::make_shared<const Event>(std::move(event)), nullptr);
}

void DistributionConnector::send_ping(model::HostId peer) {
  network_.send({.from = host_,
                 .to = peer,
                 .channel = kPingChannel,
                 .payload = {},
                 .size_kb = 0.05});  // tiny probe
}

void DistributionConnector::on_net_message(sim::NetMessage& message) {
  if (message.channel == kPingChannel) {
    // Reflect the probe back to the sender: the ping becomes the pong.
    message.to = message.from;
    message.from = host_;
    message.channel = kPongChannel;
    network_.send(std::move(message));
    return;
  }
  if (message.channel == kPongChannel) {
    if (pong_handler_) pong_handler_(message.from);
    return;
  }
  if (message.channel != kEventChannel) return;

  auto event = std::make_shared<const Event>(
      Event::deserialize(message.payload));
  if (!architecture()) return;
  if (!event->to().empty()) {
    // post_to re-resolves at dispatch; a missing destination lands in the
    // architecture's undeliverable handler (admin buffering / re-routing).
    architecture()->post_to(event->to(), event);
  } else {
    deliver_locally(event, nullptr);
  }
}

}  // namespace dif::prism
