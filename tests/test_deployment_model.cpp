// Unit tests for the deployment-architecture model (model/deployment_model.h).
#include "model/deployment_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace dif::model {
namespace {

DeploymentModel two_hosts_two_components() {
  DeploymentModel m;
  m.add_host({.name = "h0", .memory_capacity = 100.0});
  m.add_host({.name = "h1", .memory_capacity = 50.0});
  m.add_component({.name = "c0", .memory_size = 10.0});
  m.add_component({.name = "c1", .memory_size = 5.0});
  return m;
}

TEST(DeploymentModel, AddAndLookup) {
  DeploymentModel m = two_hosts_two_components();
  EXPECT_EQ(m.host_count(), 2u);
  EXPECT_EQ(m.component_count(), 2u);
  EXPECT_EQ(m.host(0).name, "h0");
  EXPECT_EQ(m.component(1).name, "c1");
  EXPECT_EQ(m.host_by_name("h1"), 1u);
  EXPECT_EQ(m.component_by_name("c0"), 0u);
  EXPECT_THROW(m.host_by_name("nope"), std::out_of_range);
  EXPECT_THROW(m.component_by_name("nope"), std::out_of_range);
  EXPECT_THROW(m.host(9), std::out_of_range);
}

TEST(DeploymentModel, PhysicalLinksAreSymmetric) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 100.0,
                             .delay_ms = 5.0});
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.9);
  EXPECT_DOUBLE_EQ(m.physical_link(1, 0).reliability, 0.9);
  EXPECT_TRUE(m.connected(0, 1));
  EXPECT_TRUE(m.connected(1, 0));
}

TEST(DeploymentModel, SelfLinkIsPerfect) {
  DeploymentModel m = two_hosts_two_components();
  EXPECT_DOUBLE_EQ(m.physical_link(0, 0).reliability, 1.0);
  EXPECT_TRUE(std::isinf(m.physical_link(1, 1).bandwidth));
  EXPECT_FALSE(m.connected(0, 0));  // "connected" means distinct hosts
  EXPECT_THROW(m.set_physical_link(0, 0, {}), std::invalid_argument);
}

TEST(DeploymentModel, UnsetLinkIsDisconnected) {
  DeploymentModel m = two_hosts_two_components();
  EXPECT_FALSE(m.connected(0, 1));
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.0);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).bandwidth, 0.0);
}

TEST(DeploymentModel, ClearLinkDisconnects) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 10.0});
  m.clear_physical_link(1, 0);
  EXPECT_FALSE(m.connected(0, 1));
}

TEST(DeploymentModel, SingleFieldLinkUpdates) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 10.0,
                             .delay_ms = 1.0});
  m.set_link_reliability(0, 1, 0.75);
  m.set_link_bandwidth(1, 0, 20.0);
  m.set_link_delay(0, 1, 2.5);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.75);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).bandwidth, 20.0);
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).delay_ms, 2.5);
}

TEST(DeploymentModel, LogicalLinksSymmetricAndSelfRejected) {
  DeploymentModel m = two_hosts_two_components();
  m.set_logical_link(0, 1, {.frequency = 4.0, .avg_event_size = 1.5});
  EXPECT_DOUBLE_EQ(m.logical_link(1, 0).frequency, 4.0);
  EXPECT_THROW(m.set_logical_link(1, 1, {}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.logical_link(0, 0).frequency, 0.0);
}

TEST(DeploymentModel, InteractionsCacheListsPositiveFrequencies) {
  DeploymentModel m;
  m.add_host({.name = "h"});
  for (int i = 0; i < 4; ++i)
    m.add_component({.name = "c" + std::to_string(i)});
  m.set_logical_link(0, 1, {.frequency = 2.0, .avg_event_size = 1.0});
  m.set_logical_link(2, 3, {.frequency = 3.0, .avg_event_size = 1.0});
  m.set_logical_link(0, 3, {.frequency = 0.0, .avg_event_size = 1.0});
  const auto interactions = m.interactions();
  ASSERT_EQ(interactions.size(), 2u);
  EXPECT_DOUBLE_EQ(m.total_interaction_frequency(), 5.0);
}

TEST(DeploymentModel, InteractionsCacheInvalidatedOnChange) {
  DeploymentModel m = two_hosts_two_components();
  m.set_logical_link(0, 1, {.frequency = 1.0, .avg_event_size = 1.0});
  EXPECT_EQ(m.interactions().size(), 1u);
  m.clear_logical_link(0, 1);
  EXPECT_EQ(m.interactions().size(), 0u);
  m.add_component({.name = "c2"});
  m.set_logical_link(0, 2, {.frequency = 2.0, .avg_event_size = 1.0});
  EXPECT_EQ(m.interactions().size(), 1u);
  EXPECT_EQ(m.interactions()[0].b, 2u);
}

TEST(DeploymentModel, GrowingTopologyPreservesLinks) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.8, .bandwidth = 50.0});
  m.set_logical_link(0, 1, {.frequency = 7.0, .avg_event_size = 0.5});
  m.add_host({.name = "h2", .memory_capacity = 10.0});
  m.add_component({.name = "c2", .memory_size = 1.0});
  EXPECT_DOUBLE_EQ(m.physical_link(0, 1).reliability, 0.8);
  EXPECT_DOUBLE_EQ(m.logical_link(0, 1).frequency, 7.0);
  EXPECT_FALSE(m.connected(0, 2));
}

TEST(DeploymentModel, ListenersFireAndRemove) {
  DeploymentModel m = two_hosts_two_components();
  int events = 0;
  const std::size_t id = m.add_listener([&](ModelEvent) { ++events; });
  m.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 1.0});
  m.set_logical_link(0, 1, {.frequency = 1.0, .avg_event_size = 1.0});
  m.notify_entity_changed();
  EXPECT_EQ(events, 3);
  m.remove_listener(id);
  m.notify_entity_changed();
  EXPECT_EQ(events, 3);
}

TEST(DeploymentModel, ValidateAcceptsSaneModel) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 1.0});
  EXPECT_NO_THROW(m.validate());
}

TEST(DeploymentModel, ValidateRejectsOutOfRangeReliability) {
  DeploymentModel m = two_hosts_two_components();
  m.set_physical_link(0, 1, {.reliability = 1.5, .bandwidth = 1.0});
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(DeploymentModel, ValidateRejectsNegativeParameters) {
  DeploymentModel m;
  m.add_host({.name = "h", .memory_capacity = -1.0});
  EXPECT_THROW(m.validate(), std::invalid_argument);

  DeploymentModel m2 = two_hosts_two_components();
  m2.set_logical_link(0, 1, {.frequency = -2.0, .avg_event_size = 1.0});
  EXPECT_THROW(m2.validate(), std::invalid_argument);
}

TEST(DeploymentModel, ValidateReportsTheCanonicallyFirstBadLink) {
  DeploymentModel m;
  for (int h = 0; h < 6; ++h) m.add_host({.name = "h" + std::to_string(h)});
  // (2, 3) precedes (0, 5) in the link columns' memory order; canonically
  // (0, 5) comes first, and its defect names the error.
  m.set_physical_link(2, 3, {.reliability = 1.5, .bandwidth = 1.0});
  m.set_physical_link(5, 0, {.reliability = 0.5, .bandwidth = -1.0});
  try {
    m.validate();
    FAIL() << "validate() accepted out-of-range links";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "DeploymentModel: negative link bandwidth/delay");
  }
}

TEST(DeploymentModel, ModelLevelProperties) {
  DeploymentModel m;
  m.properties().set("monitoring_window", 5.0);
  EXPECT_DOUBLE_EQ(m.properties().at("monitoring_window"), 5.0);
}


// --- packed link storage --------------------------------------------------

/// Bitwise equality: NaN payloads and signed zeros must survive storage.
bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// What the model must answer for a host pair, kept as a plain std::map
/// (canonical pair -> stored values and properties).
struct ReferenceLinks {
  struct Entry {
    PhysicalLink link;
    PropertyMap properties;
  };
  std::size_t hosts = 0;
  std::map<std::pair<HostId, HostId>, Entry> entries;

  static std::pair<HostId, HostId> key(HostId a, HostId b) {
    return std::minmax(a, b);
  }
  [[nodiscard]] Entry stored(HostId a, HostId b) const {
    const auto it = entries.find(key(a, b));
    return it == entries.end() ? Entry{} : it->second;
  }
  [[nodiscard]] static bool absent(const PhysicalLink& link) {
    return link.bandwidth <= 0.0 && link.reliability <= 0.0;
  }
  [[nodiscard]] PhysicalLink physical_link(HostId a, HostId b) const {
    if (a == b)
      return {1.0, std::numeric_limits<double>::infinity(), 0.0};
    const PhysicalLink link = stored(a, b).link;
    return absent(link) ? PhysicalLink{} : link;
  }
  [[nodiscard]] PropertyMap link_properties(HostId a, HostId b) const {
    if (a == b) return {};
    const Entry entry = stored(a, b);
    return absent(entry.link) ? PropertyMap{} : entry.properties;
  }
};

void expect_matches(const DeploymentModel& m, const ReferenceLinks& ref) {
  ASSERT_EQ(m.host_count(), ref.hosts);
  const PhysicalLinkTable table = m.physical_link_table();
  std::vector<std::vector<HostId>> adjacency(ref.hosts);
  std::vector<std::pair<HostId, HostId>> pairs;
  for (HostId a = 0; a < ref.hosts; ++a) {
    for (HostId b = 0; b < ref.hosts; ++b) {
      const PhysicalLink want = ref.physical_link(a, b);
      const PhysicalLink got = m.physical_link(a, b);
      EXPECT_TRUE(same_bits(got.reliability, want.reliability) &&
                  same_bits(got.bandwidth, want.bandwidth) &&
                  same_bits(got.delay_ms, want.delay_ms))
          << "physical_link(" << a << ", " << b << ")";
      EXPECT_EQ(m.link_properties(a, b), ref.link_properties(a, b))
          << "link_properties(" << a << ", " << b << ")";
      const bool connected = a != b && want.bandwidth > 0.0;
      EXPECT_EQ(m.connected(a, b), connected);
      if (connected) adjacency[a].push_back(b);
      if (a == b) continue;
      const PhysicalLink raw = ref.stored(a, b).link;
      const PhysicalLink at = table.at(a, b);
      EXPECT_TRUE(same_bits(at.reliability, raw.reliability) &&
                  same_bits(at.bandwidth, raw.bandwidth) &&
                  same_bits(at.delay_ms, raw.delay_ms))
          << "table.at(" << a << ", " << b << ")";
      if (a < b && !ReferenceLinks::absent(raw)) pairs.emplace_back(a, b);
    }
  }
  EXPECT_EQ(m.host_adjacency(), adjacency);
  EXPECT_EQ(m.physical_link_pairs(), pairs);
}

TEST(DeploymentModel, PackedLinksMatchMapReferenceUnderRandomEdits) {
  const double values[] = {0.0, -0.0, 0.25, 0.9, 1.0, 1.5, -3.0, 40.0,
                           std::nan(""),
                           std::numeric_limits<double>::infinity()};
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    const auto pick = [&](std::size_t n) {
      return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    const auto value = [&] { return values[pick(std::size(values))]; };
    // Property values compare with ==, so they leave NaN out.
    const auto level = [&] { return static_cast<double>(pick(6)); };
    DeploymentModel m;
    ReferenceLinks ref;
    const auto add_host = [&] {
      m.add_host({.name = "h" + std::to_string(ref.hosts)});
      ++ref.hosts;
    };
    add_host();
    add_host();
    for (int step = 0; step < 600; ++step) {
      const std::size_t op = pick(8);
      if (op == 0 && ref.hosts < 40) {
        add_host();
        continue;
      }
      const auto a = static_cast<HostId>(pick(ref.hosts));
      auto b = static_cast<HostId>(pick(ref.hosts));
      if (a == b) b = static_cast<HostId>((a + 1) % ref.hosts);
      ReferenceLinks::Entry& entry = ref.entries[ReferenceLinks::key(a, b)];
      switch (op) {
        case 1: {
          const PhysicalLink link{value(), value(), value()};
          PropertyMap properties;
          if (pick(2) == 0) properties.set("security", level());
          m.set_physical_link(a, b, link, properties);
          entry = {link, properties};
          break;
        }
        case 2:
          m.clear_physical_link(a, b);
          entry = {};
          break;
        case 3:
          entry.link.reliability = value();
          m.set_link_reliability(a, b, entry.link.reliability);
          break;
        case 4:
          entry.link.bandwidth = value();
          m.set_link_bandwidth(b, a, entry.link.bandwidth);
          break;
        case 5:
          entry.link.delay_ms = value();
          m.set_link_delay(a, b, entry.link.delay_ms);
          break;
        default: {
          // Property edit: keep the stored values, replace the properties.
          PropertyMap properties = entry.properties;
          if (pick(3) == 0)
            properties = {};
          else
            properties.set(pick(2) == 0 ? "security" : "cost", level());
          m.set_physical_link(a, b, m.physical_link_table().at(a, b),
                              properties);
          entry.properties = properties;
          break;
        }
      }
    }
    expect_matches(m, ref);
    if (HasFailure()) return;
  }
}

TEST(DeploymentModel, LinkStorageIsOneTriangleOfThreeColumns) {
  DeploymentModel m;
  const std::size_t k = 300;
  for (std::size_t h = 0; h < k; ++h)
    m.add_host({.name = "h" + std::to_string(h)});
  const std::size_t triangle = k * (k - 1) / 2 * 3 * sizeof(double);
  // Built one host at a time: amortized growth leaves at most 2x slack.
  EXPECT_GE(m.link_storage_bytes(), triangle);
  EXPECT_LE(m.link_storage_bytes(), 2 * triangle);
  // A copy holds exactly one entry per host pair and column, as does a
  // build that reserves its host count first.
  DeploymentModel copy = m;
  EXPECT_EQ(copy.link_storage_bytes(), triangle);
  DeploymentModel reserved;
  reserved.reserve_hosts(k);
  for (std::size_t h = 0; h < k; ++h)
    reserved.add_host({.name = "h" + std::to_string(h)});
  EXPECT_EQ(reserved.link_storage_bytes(), triangle);
  // Property-table entries add a fixed node each, links without none.
  copy.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 1.0});
  EXPECT_EQ(copy.link_storage_bytes(), triangle);
  PropertyMap properties;
  properties.set("security", 2.0);
  copy.set_physical_link(0, 1, {.reliability = 0.5, .bandwidth = 1.0},
                         properties);
  const std::size_t node = copy.link_storage_bytes() - triangle;
  EXPECT_GT(node, 0u);
  copy.set_physical_link(7, 3, {.reliability = 0.5, .bandwidth = 1.0},
                         properties);
  EXPECT_EQ(copy.link_storage_bytes(), triangle + 2 * node);
  copy.clear_physical_link(0, 1);
  EXPECT_EQ(copy.link_storage_bytes(), triangle + node);
}

TEST(DeploymentModel, LinkPropertiesFollowTheLink) {
  DeploymentModel m = two_hosts_two_components();
  PropertyMap properties;
  properties.set("security", 4.0);
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 10.0},
                      properties);
  EXPECT_EQ(m.link_properties(1, 0), properties);
  EXPECT_TRUE(m.link_properties(0, 0).empty());
  // Field updates keep them; a link read as disconnected shows none until
  // it is reconnected.
  m.set_link_bandwidth(0, 1, 0.0);
  m.set_link_reliability(0, 1, 0.0);
  EXPECT_TRUE(m.link_properties(0, 1).empty());
  m.set_link_bandwidth(0, 1, 5.0);
  EXPECT_EQ(m.link_properties(0, 1), properties);
  // Re-setting the link replaces them; clearing drops them.
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 10.0});
  EXPECT_TRUE(m.link_properties(0, 1).empty());
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 10.0},
                      properties);
  m.clear_physical_link(0, 1);
  m.set_link_bandwidth(0, 1, 5.0);
  EXPECT_TRUE(m.link_properties(0, 1).empty());
}
}  // namespace
}  // namespace dif::model

namespace dif::model {
namespace {

TEST(DeploymentModel, RejectsDuplicateNames) {
  DeploymentModel m;
  m.add_host({.name = "h"});
  EXPECT_THROW(m.add_host({.name = "h"}), std::invalid_argument);
  m.add_component({.name = "c"});
  EXPECT_THROW(m.add_component({.name = "c"}), std::invalid_argument);
  // Host and component namespaces are independent.
  EXPECT_NO_THROW(m.add_component({.name = "h"}));
}

}  // namespace
}  // namespace dif::model
