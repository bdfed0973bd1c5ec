#include "model/deployment_model.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/assert.h"

namespace dif::model {

namespace {

constexpr PhysicalLink kLocalLink{
    .reliability = 1.0,
    .bandwidth = std::numeric_limits<double>::infinity(),
    .delay_ms = 0.0};

const PropertyMap& no_properties() {
  static const PropertyMap properties;
  return properties;
}

const LogicalLink& no_interaction() {
  static const LogicalLink link{};
  return link;
}

}  // namespace

HostId DeploymentModel::add_host(Host host) {
  // Names are identifiers (xADL documents and the middleware's event
  // routing key on them); duplicates would silently corrupt both.
  for (const Host& existing : hosts_)
    if (existing.name == host.name)
      throw std::invalid_argument("DeploymentModel: duplicate host name '" +
                                  host.name + "'");
  const auto id = static_cast<HostId>(hosts_.size());
  hosts_.push_back(std::move(host));
  // Appending host `id` appends its column: one zero entry per earlier
  // host. resize() grows capacity geometrically, so a one-by-one build
  // stays amortized O(k^2) in total.
  const std::size_t pairs = hosts_.size() * (hosts_.size() - 1) / 2;
  link_reliability_.resize(pairs, 0.0);
  link_bandwidth_.resize(pairs, 0.0);
  link_delay_ms_.resize(pairs, 0.0);
  notify({.event = ModelEvent::kTopologyChanged, .host_a = id});
  return id;
}

void DeploymentModel::reserve_hosts(std::size_t hosts) {
  hosts_.reserve(hosts);
  const std::size_t pairs = hosts < 2 ? 0 : hosts * (hosts - 1) / 2;
  link_reliability_.reserve(pairs);
  link_bandwidth_.reserve(pairs);
  link_delay_ms_.reserve(pairs);
}

ComponentId DeploymentModel::add_component(SoftwareComponent component) {
  for (const SoftwareComponent& existing : components_)
    if (existing.name == component.name)
      throw std::invalid_argument(
          "DeploymentModel: duplicate component name '" + component.name +
          "'");
  const auto id = static_cast<ComponentId>(components_.size());
  components_.push_back(std::move(component));
  interactions_dirty_ = true;
  notify({.event = ModelEvent::kTopologyChanged, .component_a = id});
  return id;
}

HostId DeploymentModel::host_by_name(std::string_view name) const {
  const auto it = std::find_if(hosts_.begin(), hosts_.end(),
                               [&](const Host& h) { return h.name == name; });
  if (it == hosts_.end())
    throw std::out_of_range("DeploymentModel: no host named '" +
                            std::string(name) + "'");
  return static_cast<HostId>(it - hosts_.begin());
}

ComponentId DeploymentModel::component_by_name(std::string_view name) const {
  const auto it = std::find_if(
      components_.begin(), components_.end(),
      [&](const SoftwareComponent& c) { return c.name == name; });
  if (it == components_.end())
    throw std::out_of_range("DeploymentModel: no component named '" +
                            std::string(name) + "'");
  return static_cast<ComponentId>(it - components_.begin());
}

void DeploymentModel::set_host_region(HostId id, std::size_t region) {
  check_host(id);
  hosts_[id].properties.set(kRegionProperty, static_cast<double>(region));
  notify({.event = ModelEvent::kEntityParamChanged, .host_a = id});
}

std::size_t DeploymentModel::host_region(HostId id) const {
  check_host(id);
  return static_cast<std::size_t>(
      hosts_[id].properties.get_or(kRegionProperty, 0.0));
}

std::size_t DeploymentModel::region_count() const {
  std::size_t highest = 0;
  for (std::size_t h = 0; h < hosts_.size(); ++h)
    highest = std::max(highest, host_region(static_cast<HostId>(h)));
  return hosts_.empty() ? 1 : highest + 1;
}

std::vector<HostId> DeploymentModel::hosts_in_region(
    std::size_t region) const {
  std::vector<HostId> members;
  for (std::size_t h = 0; h < hosts_.size(); ++h)
    if (host_region(static_cast<HostId>(h)) == region)
      members.push_back(static_cast<HostId>(h));
  return members;
}

void DeploymentModel::check_host(HostId id) const {
  if (id >= hosts_.size())
    throw std::out_of_range("DeploymentModel: bad host id");
}

void DeploymentModel::check_component(ComponentId id) const {
  if (id >= components_.size())
    throw std::out_of_range("DeploymentModel: bad component id");
}

std::size_t DeploymentModel::link_index(HostId a, HostId b) const {
  check_host(a);
  check_host(b);
  const std::size_t index = PhysicalLinkTable::index(a, b);
  DIF_ASSERT(a == b || index < link_bandwidth_.size(),
             "canonical host pair must index into the link columns");
  return index;
}

std::size_t DeploymentModel::settable_link_index(HostId a, HostId b) const {
  if (a == b)
    throw std::invalid_argument("DeploymentModel: self physical link");
  return link_index(a, b);
}

std::uint64_t DeploymentModel::pair_key(std::uint32_t a, std::uint32_t b) {
  const auto [lo, hi] = std::minmax(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void DeploymentModel::set_physical_link(HostId a, HostId b, PhysicalLink link,
                                        PropertyMap properties) {
  const std::size_t i = settable_link_index(a, b);
  link_reliability_[i] = link.reliability;
  link_bandwidth_[i] = link.bandwidth;
  link_delay_ms_[i] = link.delay_ms;
  if (properties.empty())
    link_properties_.erase(pair_key(a, b));
  else
    link_properties_[pair_key(a, b)] = std::move(properties);
  notify({.event = ModelEvent::kPhysicalLinkChanged, .host_a = a,
          .host_b = b});
}

void DeploymentModel::clear_physical_link(HostId a, HostId b) {
  if (a == b) return;
  const std::size_t i = link_index(a, b);
  link_reliability_[i] = 0.0;
  link_bandwidth_[i] = 0.0;
  link_delay_ms_[i] = 0.0;
  link_properties_.erase(pair_key(a, b));
  notify({.event = ModelEvent::kPhysicalLinkChanged, .host_a = a,
          .host_b = b});
}

PhysicalLink DeploymentModel::physical_link(HostId a, HostId b) const {
  const std::size_t i = link_index(a, b);
  if (a == b) return kLocalLink;
  const PhysicalLink link{link_reliability_[i], link_bandwidth_[i],
                          link_delay_ms_[i]};
  if (link.bandwidth <= 0.0 && link.reliability <= 0.0) return {};
  return link;
}

const PropertyMap& DeploymentModel::link_properties(HostId a, HostId b) const {
  const std::size_t i = link_index(a, b);
  if (a == b || link_properties_.empty()) return no_properties();
  // Same canonicalization as physical_link(): a pair read as disconnected
  // carries no parameters.
  if (link_bandwidth_[i] <= 0.0 && link_reliability_[i] <= 0.0)
    return no_properties();
  const auto it = link_properties_.find(pair_key(a, b));
  return it == link_properties_.end() ? no_properties() : it->second;
}

bool DeploymentModel::connected(HostId a, HostId b) const {
  if (a == b) return false;
  return link_bandwidth_[link_index(a, b)] > 0.0;
}

std::vector<std::pair<HostId, HostId>> DeploymentModel::physical_link_pairs()
    const {
  // Memory order is column-major (hi, then lo); stored links are sparse,
  // so collecting them and sorting into canonical (lo, hi) order is cheaper
  // than a strided row walk.
  std::vector<std::pair<HostId, HostId>> pairs;
  const std::size_t k = hosts_.size();
  for (std::size_t hi = 1, base = 0; hi < k; base += hi, ++hi)
    for (std::size_t lo = 0; lo < hi; ++lo)
      if (!(link_bandwidth_[base + lo] <= 0.0 &&
            link_reliability_[base + lo] <= 0.0))
        pairs.emplace_back(static_cast<HostId>(lo), static_cast<HostId>(hi));
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::vector<std::vector<HostId>> DeploymentModel::host_adjacency() const {
  const std::size_t k = hosts_.size();
  std::vector<std::vector<HostId>> adj(k);
  // Column hi appends its lower neighbours lo < hi to adj[hi] and hi to
  // adj[lo]; columns run ascending, so every list comes out sorted.
  for (std::size_t hi = 1, base = 0; hi < k; base += hi, ++hi)
    for (std::size_t lo = 0; lo < hi; ++lo)
      if (link_bandwidth_[base + lo] > 0.0) {
        adj[hi].push_back(static_cast<HostId>(lo));
        adj[lo].push_back(static_cast<HostId>(hi));
      }
  return adj;
}

std::size_t DeploymentModel::link_storage_bytes() const noexcept {
  // One red-black tree node: colour, parent, left and right, then the value.
  constexpr std::size_t kNodeBytes =
      4 * sizeof(void*) + sizeof(std::pair<const std::uint64_t, PropertyMap>);
  return (link_reliability_.capacity() + link_bandwidth_.capacity() +
          link_delay_ms_.capacity()) *
             sizeof(double) +
         link_properties_.size() * kNodeBytes;
}

void DeploymentModel::set_link_reliability(HostId a, HostId b,
                                           double reliability) {
  link_reliability_[settable_link_index(a, b)] = reliability;
  notify({.event = ModelEvent::kPhysicalLinkChanged, .host_a = a,
          .host_b = b});
}

void DeploymentModel::set_link_bandwidth(HostId a, HostId b,
                                         double bandwidth) {
  link_bandwidth_[settable_link_index(a, b)] = bandwidth;
  notify({.event = ModelEvent::kPhysicalLinkChanged, .host_a = a,
          .host_b = b});
}

void DeploymentModel::set_link_delay(HostId a, HostId b, double delay_ms) {
  link_delay_ms_[settable_link_index(a, b)] = delay_ms;
  notify({.event = ModelEvent::kPhysicalLinkChanged, .host_a = a,
          .host_b = b});
}

void DeploymentModel::set_logical_link(ComponentId a, ComponentId b,
                                       LogicalLink link) {
  if (a == b)
    throw std::invalid_argument("DeploymentModel: self logical link");
  check_component(a);
  check_component(b);
  logical_[pair_key(a, b)] = std::move(link);
  interactions_dirty_ = true;
  notify({.event = ModelEvent::kLogicalLinkChanged, .component_a = a,
          .component_b = b});
}

void DeploymentModel::clear_logical_link(ComponentId a, ComponentId b) {
  if (a == b) return;
  check_component(a);
  check_component(b);
  logical_.erase(pair_key(a, b));
  interactions_dirty_ = true;
  notify({.event = ModelEvent::kLogicalLinkChanged, .component_a = a,
          .component_b = b});
}

const LogicalLink& DeploymentModel::logical_link(ComponentId a,
                                                 ComponentId b) const {
  check_component(a);
  check_component(b);
  if (a == b) return no_interaction();
  const auto it = logical_.find(pair_key(a, b));
  return it == logical_.end() ? no_interaction() : it->second;
}

std::vector<std::pair<ComponentId, ComponentId>>
DeploymentModel::logical_link_pairs() const {
  std::vector<std::pair<ComponentId, ComponentId>> pairs;
  pairs.reserve(logical_.size());
  for (const auto& [key, link] : logical_)
    pairs.emplace_back(static_cast<ComponentId>(key >> 32),
                       static_cast<ComponentId>(key & 0xffffffffu));
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::span<const Interaction> DeploymentModel::interactions() const {
  if (interactions_dirty_) {
    interactions_cache_.clear();
    interactions_cache_.reserve(logical_.size());
    for (const auto& [key, link] : logical_) {
      if (link.frequency > 0.0) {
        interactions_cache_.push_back(
            {static_cast<ComponentId>(key >> 32),
             static_cast<ComponentId>(key & 0xffffffffu), link.frequency,
             link.avg_event_size});
      }
    }
    // Canonical (a, b) order: the sparse map iterates in hash order, but
    // every consumer (incremental adjacency, xADL serialization, DecAp's
    // auction indexing) relies on a deterministic interaction sequence.
    std::sort(interactions_cache_.begin(), interactions_cache_.end(),
              [](const Interaction& x, const Interaction& y) {
                return x.a != y.a ? x.a < y.a : x.b < y.b;
              });
    interactions_dirty_ = false;
  }
  DIF_ASSERT(interactions_cache_.size() <= logical_.size(),
             "interaction cache cannot exceed the stored link count");
  return interactions_cache_;
}

double DeploymentModel::total_interaction_frequency() const {
  double total = 0.0;
  for (const Interaction& ix : interactions()) total += ix.frequency;
  return total;
}

std::size_t DeploymentModel::add_listener(Listener listener) {
  const std::size_t id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  return id;
}

void DeploymentModel::remove_listener(std::size_t id) {
  std::erase_if(listeners_, [id](const auto& p) { return p.first == id; });
}

std::size_t DeploymentModel::add_detail_listener(DetailListener listener) {
  const std::size_t id = next_listener_id_++;
  detail_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void DeploymentModel::remove_detail_listener(std::size_t id) {
  std::erase_if(detail_listeners_,
                [id](const auto& p) { return p.first == id; });
}

void DeploymentModel::notify_entity_changed() {
  notify({.event = ModelEvent::kEntityParamChanged});
}

void DeploymentModel::notify(const ModelChange& change) {
  for (const auto& [id, listener] : listeners_) listener(change.event);
  for (const auto& [id, listener] : detail_listeners_) listener(change);
}

void DeploymentModel::validate() const {
  for (const Host& h : hosts_) {
    if (h.memory_capacity < 0.0 || h.cpu_capacity < 0.0)
      throw std::invalid_argument("DeploymentModel: negative host capacity (" +
                                  h.name + ")");
  }
  for (const SoftwareComponent& c : components_) {
    if (c.memory_size < 0.0 || c.cpu_load < 0.0)
      throw std::invalid_argument(
          "DeploymentModel: negative component requirement (" + c.name + ")");
  }
  // Walk the columns in memory order, keeping the canonically first
  // (lowest (a, b)) bad link: it decides the message, as a row-order walk
  // stopping at the first bad link would.
  const auto bad_reliability = [](double r) { return r < 0.0 || r > 1.0; };
  const std::size_t k = hosts_.size();
  std::pair<std::size_t, std::size_t> first_bad{k, k};
  std::size_t first_bad_index = 0;
  for (std::size_t hi = 1, base = 0; hi < k; base += hi, ++hi)
    for (std::size_t lo = 0; lo < hi; ++lo) {
      const std::size_t i = base + lo;
      if (!bad_reliability(link_reliability_[i]) &&
          !(link_bandwidth_[i] < 0.0 || link_delay_ms_[i] < 0.0))
        continue;
      if (std::pair(lo, hi) < first_bad) {
        first_bad = {lo, hi};
        first_bad_index = i;
      }
    }
  if (first_bad.first < k) {
    if (bad_reliability(link_reliability_[first_bad_index]))
      throw std::invalid_argument(
          "DeploymentModel: link reliability outside [0,1]");
    throw std::invalid_argument(
        "DeploymentModel: negative link bandwidth/delay");
  }
  for (const auto& [key, link] : logical_) {
    if (link.frequency < 0.0 || link.avg_event_size < 0.0)
      throw std::invalid_argument(
          "DeploymentModel: negative logical link parameter");
  }
}

}  // namespace dif::model
