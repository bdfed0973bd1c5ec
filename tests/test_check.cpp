// Defect corpus for the static deployment-model analyzer (check/).
//
// Every rule gets at least one seeded-positive model it must flag (with the
// correct rule id) and one near-miss negative it must stay silent on.
#include "check/static_analyzer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "check/preflight.h"
#include "desi/algorithm_container.h"
#include "desi/generator.h"
#include "model/constraints.h"
#include "model/deployment_model.h"
#include "model/objective.h"

namespace dif::check {
namespace {

using model::ComponentId;
using model::ConstraintSet;
using model::DeploymentModel;
using model::HostId;

/// k fully-connected hosts (mem 100) and n components (mem 10).
DeploymentModel make_model(std::size_t hosts, std::size_t comps,
                          double host_mem = 100.0, double comp_mem = 10.0) {
  DeploymentModel m;
  for (std::size_t h = 0; h < hosts; ++h)
    m.add_host({.name = "h" + std::to_string(h), .memory_capacity = host_mem});
  for (std::size_t c = 0; c < comps; ++c)
    m.add_component(
        {.name = "c" + std::to_string(c), .memory_size = comp_mem});
  for (std::size_t a = 0; a < hosts; ++a)
    for (std::size_t b = a + 1; b < hosts; ++b)
      m.set_physical_link(static_cast<HostId>(a), static_cast<HostId>(b),
                          {.reliability = 0.9, .bandwidth = 100.0});
  return m;
}

std::size_t errors_of(const CheckReport& report, Rule rule) {
  std::size_t n = 0;
  for (const Diagnostic& d : report.diagnostics())
    if (d.rule == rule && d.severity == Severity::kError) ++n;
  return n;
}

// --- dangling-reference ----------------------------------------------------

TEST(CheckDanglingReference, FlagsConstraintsOverMissingEntities) {
  const DeploymentModel m = make_model(2, 3);
  ConstraintSet cs;
  cs.pin(7, 0);                  // no component 7
  cs.allow_only(0, {5});         // no host 5
  cs.require_colocation(1, 9);   // no component 9
  cs.forbid_colocation(2, 8);    // no component 8
  cs.forbid_host(6, 1);          // no component 6
  const CheckReport report = run_checks(m, cs);
  EXPECT_TRUE(report.has(Rule::kDanglingReference));
  EXPECT_GE(errors_of(report, Rule::kDanglingReference), 5u);
}

TEST(CheckDanglingReference, SilentOnBoundaryIds) {
  const DeploymentModel m = make_model(2, 3);
  ConstraintSet cs;
  cs.pin(2, 1);                 // last component, last host
  cs.require_colocation(0, 2);
  cs.forbid_host(1, 0);
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kDanglingReference));
}

// --- param-range -----------------------------------------------------------

TEST(CheckParamRange, FlagsOutOfDomainParameters) {
  DeploymentModel m = make_model(3, 2);
  m.set_physical_link(0, 1, {.reliability = 1.5, .bandwidth = 10.0});
  m.set_physical_link(1, 2, {.reliability = 0.9, .bandwidth = -4.0});
  m.set_logical_link(0, 1, {.frequency = -1.0, .avg_event_size = 0.5});
  m.host(0).memory_capacity = -10.0;
  m.component(1).cpu_load = std::nan("");
  const CheckReport report = run_checks(m, ConstraintSet());
  EXPECT_GE(errors_of(report, Rule::kParamRange), 5u);
}

TEST(CheckParamRange, SilentOnBoundaryValues) {
  DeploymentModel m = make_model(2, 2);
  m.set_physical_link(0, 1, {.reliability = 1.0, .bandwidth = 0.1});
  m.set_logical_link(0, 1, {.frequency = 0.0, .avg_event_size = 0.0});
  m.host(0).cpu_capacity = 0.0;  // "not modelled" is legal
  const CheckReport report = run_checks(m, ConstraintSet());
  EXPECT_FALSE(report.has(Rule::kParamRange));
}

TEST(CheckParamRange, LogicalLinkFindingsComeInCanonicalPairOrder) {
  // Invalid logical links inserted in scrambled order (the model stores
  // them in a hash map): the findings must follow canonical (a, b) order,
  // exactly as an all-pairs scan over logical_link() reports them.
  const std::size_t n = 30;
  DeploymentModel m = make_model(2, n);
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  const double nan = std::nan("");
  const double bad[] = {-1.0, nan, -0.5, std::numeric_limits<double>::infinity()};
  for (int i = 0; i < 60; ++i) {
    const auto a = static_cast<ComponentId>(pick(rng));
    const auto b = static_cast<ComponentId>(pick(rng));
    if (a == b) continue;
    model::LogicalLink link{
        .frequency = 1.0, .avg_event_size = 1.0, .properties = {}};
    switch (i % 4) {
      case 0: link.frequency = bad[i % 3]; break;
      case 1: link.avg_event_size = bad[(i + 1) % 4]; break;
      case 2:
        link = {.frequency = nan, .avg_event_size = -2.0, .properties = {}};
        break;
      default: break;  // valid: must stay silent
    }
    m.set_logical_link(b, a, link);  // either orientation; stored canonical
  }
  m.set_logical_link(
      3, 4, {.frequency = 0.0, .avg_event_size = 0.0, .properties = {}});

  std::vector<std::string> expected;
  for (ComponentId a = 0; a < n; ++a)
    for (ComponentId b = a + 1; b < n; ++b) {
      const model::LogicalLink& link = m.logical_link(a, b);
      if (link.frequency == 0.0 && link.avg_event_size == 0.0) continue;
      const std::string subject = "interaction " + m.component(a).name +
                                  "--" + m.component(b).name;
      if (!(link.frequency >= 0.0) || std::isinf(link.frequency))
        expected.push_back(subject + ": frequency " + fmt(link.frequency));
      if (!(link.avg_event_size >= 0.0) || std::isinf(link.avg_event_size))
        expected.push_back(subject + ": event size " +
                           fmt(link.avg_event_size));
    }
  ASSERT_GE(expected.size(), 20u);

  const CheckReport report = run_checks(m, ConstraintSet());
  std::vector<std::string> got;
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.rule != Rule::kParamRange) continue;
    ASSERT_EQ(d.subjects.size(), 1u);
    const std::string tail = " is invalid";
    ASSERT_GT(d.message.size(), tail.size());
    got.push_back(d.subjects[0] + ": " +
                  d.message.substr(0, d.message.size() - tail.size()));
  }
  EXPECT_EQ(got, expected);
}

TEST(CheckParamRange, PhysicalLinkFindingsComeInCanonicalPairOrder) {
  // Invalid physical links inserted in scrambled order and orientation,
  // some before later hosts exist (the link columns store pair (a, b) by its
  // higher host first): the findings must follow canonical (a, b) order,
  // exactly as an all-pairs scan over physical_link() reports them.
  DeploymentModel m;
  std::mt19937 rng(11);
  const double nan = std::nan("");
  const double bad[] = {-1.0, nan, 1.5,
                        std::numeric_limits<double>::infinity()};
  std::size_t k = 0;
  for (int i = 0; i < 80; ++i) {
    if (i % 4 == 0 && k < 24) {
      m.add_host({.name = "h" + std::to_string(k++)});
      if (k < 2) continue;
    }
    if (k < 2) continue;
    const auto a = static_cast<HostId>(rng() % k);
    const auto b = static_cast<HostId>(rng() % k);
    if (a == b) continue;
    model::PhysicalLink link{.reliability = 0.9, .bandwidth = 10.0,
                             .delay_ms = 1.0};
    switch (i % 5) {
      case 0: link.reliability = bad[i % 4]; break;
      case 1: link.bandwidth = bad[(i + 1) % 4]; break;
      case 2: link.delay_ms = bad[i % 2]; break;
      case 3: link = {.reliability = nan, .bandwidth = -2.0, .delay_ms = nan};
        break;
      default: break;  // valid: must stay silent
    }
    m.set_physical_link(b, a, link);
  }
  // Stored all-zero but for a bad delay: reads as absent, stays silent.
  m.set_physical_link(1, 5, {.reliability = 0.0, .bandwidth = 0.0,
                             .delay_ms = -1.0});

  std::vector<std::string> expected;
  for (HostId a = 0; a < k; ++a)
    for (HostId b = a + 1; b < k; ++b) {
      const model::PhysicalLink link = m.physical_link(a, b);
      if (link.bandwidth <= 0.0 && link.reliability <= 0.0) continue;
      const std::string subject =
          "link " + m.host(a).name + "--" + m.host(b).name;
      const auto bad_nonneg = [](double v) {
        return !(v >= 0.0) || std::isinf(v);
      };
      if (!(link.reliability >= 0.0 && link.reliability <= 1.0))
        expected.push_back(subject + ": reliability " +
                           fmt(link.reliability) + " is outside [0, 1]");
      if (bad_nonneg(link.bandwidth))
        expected.push_back(subject + ": bandwidth " + fmt(link.bandwidth) +
                           " is not a finite non-negative number");
      if (bad_nonneg(link.delay_ms))
        expected.push_back(subject + ": delay " + fmt(link.delay_ms) +
                           " is not a finite non-negative number");
    }
  ASSERT_GE(expected.size(), 20u);

  const CheckReport report = run_checks(m, ConstraintSet());
  std::vector<std::string> got;
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.rule != Rule::kParamRange) continue;
    ASSERT_EQ(d.subjects.size(), 1u);
    got.push_back(d.subjects[0] + ": " + d.message);
  }
  EXPECT_EQ(got, expected);
}

TEST(CheckFmt, MatchesDefaultStreamFormatting) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v :
       {0.0, -0.0, 1.0, -4.0, 0.1, 2.5e-7, 123456.0, 1234567.0, 999999.5,
        1e300, -1e-300, 5e-324, std::numeric_limits<double>::max(), inf,
        -inf, std::nan(""), -std::nan("")}) {
    std::ostringstream os;
    os << v;
    EXPECT_EQ(fmt(v), os.str());
  }
}

// --- allow masks -----------------------------------------------------------

TEST(AnalysisContext, AllowedMatchesHostAllowedOnRandomRuleSets) {
  // Allow-lists and forbids overlap, name ids past the model (dangling
  // rules are skipped, not mis-set), and host counts straddle the 64-bit
  // word boundary. k = 0 leaves no legal host for anyone.
  std::mt19937 rng(13);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {9, 0}, {9, 1}, {17, 5}, {24, 63}, {24, 64}, {30, 65}, {12, 130}};
  for (const auto& [n, k] : shapes) {
    for (int trial = 0; trial < 4; ++trial) {
      const DeploymentModel m = make_model(k, n);
      ConstraintSet cs;
      std::uniform_int_distribution<std::size_t> comp(0, n + 2);
      std::uniform_int_distribution<std::size_t> host(0, k + 3);
      std::vector<std::pair<ComponentId, HostId>> listed;
      for (int rule = 0; rule < 12; ++rule) {
        const auto c = static_cast<ComponentId>(comp(rng));
        std::vector<HostId> hosts;
        for (std::size_t i = 0, len = 1 + rng() % 6; i < len; ++i) {
          hosts.push_back(static_cast<HostId>(host(rng)));
          listed.emplace_back(c, hosts.back());
        }
        cs.allow_only(c, std::move(hosts));  // repeats replace the list
      }
      for (int rule = 0; rule < 20; ++rule) {
        if (rule % 2 == 0 && !listed.empty()) {
          const auto& [c, h] = listed[rng() % listed.size()];
          cs.forbid_host(c, h);  // overlaps an allow-list entry
        } else {
          cs.forbid_host(static_cast<ComponentId>(comp(rng)),
                         static_cast<HostId>(host(rng)));
        }
      }

      const AnalysisContext ctx(m, cs);
      ASSERT_EQ(ctx.components(), n);
      ASSERT_EQ(ctx.hosts(), k);
      for (std::size_t c = 0; c < n; ++c) {
        std::size_t legal = 0;
        for (std::size_t h = 0; h < k; ++h) {
          const bool want = cs.host_allowed(static_cast<ComponentId>(c),
                                            static_cast<HostId>(h));
          EXPECT_EQ(ctx.allowed(c, h), want)
              << "n=" << n << " k=" << k << " c=" << c << " h=" << h;
          legal += want ? 1 : 0;
        }
        EXPECT_EQ(ctx.allowed_count(c), legal) << "n=" << n << " k=" << k;
      }
      if (k == 0) continue;  // the checker rejects host-less models
      const model::ConstraintChecker checker(m, cs);
      for (std::size_t c = 0; c < n; ++c)
        for (std::size_t h = 0; h < k; ++h)
          EXPECT_EQ(checker.host_allowed(static_cast<ComponentId>(c),
                                         static_cast<HostId>(h)),
                    ctx.allowed(c, h));
    }
  }
}

// --- location-unsat --------------------------------------------------------

TEST(CheckLocationUnsat, FlagsEmptyEffectiveAllowList) {
  const DeploymentModel m = make_model(3, 2);
  ConstraintSet cs;
  cs.allow_only(0, {1});
  cs.forbid_host(0, 1);  // pin erased by the forbid: nothing left
  const CheckReport report = run_checks(m, cs);
  EXPECT_EQ(errors_of(report, Rule::kLocationUnsat), 1u);
}

TEST(CheckLocationUnsat, SilentWhenOneHostSurvives) {
  const DeploymentModel m = make_model(3, 2);
  ConstraintSet cs;
  cs.allow_only(0, {1, 2});
  cs.forbid_host(0, 1);  // host 2 survives
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kLocationUnsat));
}

// --- colocation-conflict ---------------------------------------------------

TEST(CheckColocationConflict, FlagsSeparationInsideMustClosure) {
  const DeploymentModel m = make_model(2, 4);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.require_colocation(1, 2);   // closure: {0, 1, 2}
  cs.forbid_colocation(0, 2);    // contradicts the closure
  const CheckReport report = run_checks(m, cs);
  EXPECT_EQ(errors_of(report, Rule::kColocationConflict), 1u);
}

TEST(CheckColocationConflict, SilentOnSeparationOutsideClosure) {
  const DeploymentModel m = make_model(2, 4);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.require_colocation(1, 2);
  cs.forbid_colocation(0, 3);  // component 3 is outside the closure
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kColocationConflict));
}

// --- group-location-unsat --------------------------------------------------

TEST(CheckGroupLocationUnsat, FlagsEmptyAllowListIntersection) {
  const DeploymentModel m = make_model(3, 3);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.allow_only(0, {0, 1});
  cs.allow_only(1, {2});  // intersection with {0, 1} is empty
  const CheckReport report = run_checks(m, cs);
  EXPECT_EQ(errors_of(report, Rule::kGroupLocationUnsat), 1u);
}

TEST(CheckGroupLocationUnsat, SilentWhenIntersectionNonEmpty) {
  const DeploymentModel m = make_model(3, 3);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.allow_only(0, {0, 1});
  cs.allow_only(1, {1, 2});  // host 1 is common
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kGroupLocationUnsat));
}

// --- capacity-pigeonhole ---------------------------------------------------

TEST(CheckCapacityPigeonhole, FlagsGroupLargerThanBestLegalHost) {
  DeploymentModel m = make_model(2, 3, /*host_mem=*/25.0, /*comp_mem=*/10.0);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.require_colocation(1, 2);  // 30 KB group, best host holds 25 KB
  const CheckReport report = run_checks(m, cs);
  EXPECT_GE(errors_of(report, Rule::kCapacityPigeonhole), 1u);
}

TEST(CheckCapacityPigeonhole, FlagsGlobalOversubscription) {
  // 4 * 10 KB of components vs 2 * 15 KB of hosts: no assignment can fit
  // even though every single component fits somewhere.
  const DeploymentModel m = make_model(2, 4, 15.0, 10.0);
  const CheckReport report = run_checks(m, ConstraintSet());
  EXPECT_GE(errors_of(report, Rule::kCapacityPigeonhole), 1u);
}

TEST(CheckCapacityPigeonhole, FlagsCpuOnlyWhenEveryLegalHostModelsIt) {
  DeploymentModel m = make_model(2, 1);
  m.host(0).cpu_capacity = 1.0;
  m.host(1).cpu_capacity = 1.0;
  m.component(0).cpu_load = 2.0;
  EXPECT_GE(errors_of(run_checks(m, ConstraintSet()),
                      Rule::kCapacityPigeonhole),
            1u);
  // One legal host opts out of CPU modelling: the bound no longer holds.
  m.host(1).cpu_capacity = 0.0;
  EXPECT_FALSE(run_checks(m, ConstraintSet())
                   .has(Rule::kCapacityPigeonhole));
}

TEST(CheckCapacityPigeonhole, SilentWhenOneLegalHostFits) {
  DeploymentModel m = make_model(2, 3, 25.0, 10.0);
  m.host(1).memory_capacity = 31.0;  // the 30 KB group fits on h1
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.require_colocation(1, 2);
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kCapacityPigeonhole));
}

// --- network-partition -----------------------------------------------------

/// Two 2-host islands: {h0, h1} and {h2, h3}, no cross link.
DeploymentModel make_partitioned(double comp_mem = 10.0) {
  DeploymentModel m;
  for (int h = 0; h < 4; ++h)
    m.add_host({.name = "h" + std::to_string(h), .memory_capacity = 100.0});
  for (int c = 0; c < 2; ++c)
    m.add_component(
        {.name = "c" + std::to_string(c), .memory_size = comp_mem});
  m.set_physical_link(0, 1, {.reliability = 0.9, .bandwidth = 50.0});
  m.set_physical_link(2, 3, {.reliability = 0.9, .bandwidth = 50.0});
  m.set_logical_link(0, 1, {.frequency = 2.0, .avg_event_size = 1.0});
  return m;
}

TEST(CheckNetworkPartition, FlagsInteractionAcrossIslands) {
  const DeploymentModel m = make_partitioned();
  ConstraintSet cs;
  cs.pin(0, 0);  // island {h0, h1}
  cs.pin(1, 2);  // island {h2, h3}
  const CheckReport report = run_checks(m, cs);
  EXPECT_EQ(errors_of(report, Rule::kNetworkPartition), 1u);
}

TEST(CheckNetworkPartition, FlagsSeparatedPairWithOnlyOneCommonHost) {
  const DeploymentModel m = make_partitioned();
  ConstraintSet cs;
  cs.allow_only(0, {0});
  cs.allow_only(1, {0});
  cs.forbid_colocation(0, 1);  // need two distinct hosts, only h0 legal
  const CheckReport report = run_checks(m, cs);
  EXPECT_EQ(errors_of(report, Rule::kNetworkPartition), 1u);
}

TEST(CheckNetworkPartition, SilentWhenSameIslandOrCollocatable) {
  const DeploymentModel m = make_partitioned();
  {
    ConstraintSet cs;
    cs.pin(0, 2);
    cs.pin(1, 3);  // same island, linked
    EXPECT_FALSE(run_checks(m, cs).has(Rule::kNetworkPartition));
  }
  {
    // Unconstrained endpoints can always be collocated.
    EXPECT_FALSE(
        run_checks(m, ConstraintSet()).has(Rule::kNetworkPartition));
  }
  {
    ConstraintSet cs;
    cs.allow_only(0, {0, 1});
    cs.allow_only(1, {0, 1});
    cs.forbid_colocation(0, 1);  // h0 + h1 are distinct and linked
    EXPECT_FALSE(run_checks(m, cs).has(Rule::kNetworkPartition));
  }
}

TEST(CheckNetworkPartition, MatchesBruteForceOnRandomIslands) {
  // Sparse random links leave several islands and isolated hosts; random
  // allow-lists and separations decide which interactions no connected
  // host pair can carry. Reference: every (x, y) host pair, partitions by
  // a k^2 connected() flood fill. The isolated-host lint is checked too.
  std::mt19937 rng(5);
  std::size_t flagged = 0, isolated = 0;
  for (const std::size_t k : {5u, 40u, 70u, 130u}) {
    for (int trial = 0; trial < 3; ++trial) {
      const std::size_t n = 24;
      DeploymentModel m;
      for (std::size_t h = 0; h < k; ++h)
        m.add_host({.name = "h" + std::to_string(h),
                    .memory_capacity = 100.0,
                    .properties = {}});
      for (std::size_t c = 0; c < n; ++c)
        m.add_component({.name = "c" + std::to_string(c),
                         .memory_size = 1.0,
                         .properties = {}});
      for (std::size_t i = 0; i < k; ++i) {
        const auto a = static_cast<HostId>(rng() % k);
        const auto b = static_cast<HostId>(rng() % k);
        if (a != b)
          m.set_physical_link(
              a, b, {.reliability = 0.9, .bandwidth = 10.0});
      }
      for (std::size_t i = 0; i < 3 * n; ++i) {
        const auto a = static_cast<ComponentId>(rng() % n);
        const auto b = static_cast<ComponentId>(rng() % n);
        if (a != b)
          m.set_logical_link(
              a, b,
              {.frequency = 1.0, .avg_event_size = 1.0, .properties = {}});
      }
      ConstraintSet cs;
      for (ComponentId c = 0; c < n; ++c) {
        if (rng() % 3 == 0) continue;
        std::vector<HostId> hosts;
        for (std::size_t i = 0, len = 1 + rng() % 3; i < len; ++i)
          hosts.push_back(static_cast<HostId>(rng() % k));
        cs.allow_only(c, std::move(hosts));
      }
      for (int i = 0; i < 12; ++i) {
        const auto a = static_cast<ComponentId>(rng() % n);
        const auto b = static_cast<ComponentId>(rng() % n);
        if (a != b) cs.forbid_colocation(a, b);
      }

      std::vector<std::size_t> island(k, k);
      for (std::size_t root = 0, next = 0; root < k; ++root) {
        if (island[root] != k) continue;
        std::vector<std::size_t> stack{root};
        island[root] = next;
        while (!stack.empty()) {
          const std::size_t u = stack.back();
          stack.pop_back();
          for (std::size_t v = 0; v < k; ++v)
            if (island[v] == k && m.connected(static_cast<HostId>(u),
                                              static_cast<HostId>(v))) {
              island[v] = next;
              stack.push_back(v);
            }
        }
        ++next;
      }
      std::vector<std::string> want_partition;
      for (const model::Interaction& ix : m.interactions()) {
        bool separated = false;
        for (const auto& [a, b] : cs.anti_colocation_pairs())
          separated |= a == ix.a && b == ix.b;
        bool carried = false;
        for (HostId x = 0; x < k && !carried; ++x)
          for (HostId y = 0; y < k && !carried; ++y)
            carried = cs.host_allowed(ix.a, x) && cs.host_allowed(ix.b, y) &&
                      island[x] == island[y] && !(separated && x == y);
        if (!carried)
          want_partition.push_back("component " + m.component(ix.a).name +
                                   "|component " + m.component(ix.b).name);
      }
      std::vector<std::string> want_isolated;
      for (HostId h = 0; h < k; ++h) {
        bool linked = false;
        for (HostId o = 0; o < k; ++o) linked |= m.connected(h, o);
        if (!linked) want_isolated.push_back("host " + m.host(h).name);
      }

      const CheckReport report = run_checks(m, cs);
      std::vector<std::string> got_partition, got_isolated;
      for (const Diagnostic& d : report.diagnostics()) {
        if (d.rule == Rule::kNetworkPartition)
          got_partition.push_back(d.subjects.at(0) + "|" + d.subjects.at(1));
        if (d.rule == Rule::kIsolatedHost)
          got_isolated.push_back(d.subjects.at(0));
      }
      EXPECT_EQ(got_partition, want_partition) << "k=" << k;
      EXPECT_EQ(got_isolated, want_isolated) << "k=" << k;
      flagged += want_partition.size();
      isolated += want_isolated.size();
    }
  }
  EXPECT_GT(flagged, 0u);
  EXPECT_GT(isolated, 0u);
}

// --- lints -----------------------------------------------------------------

TEST(CheckLints, IsolatedHostIsAWarningNotAnError) {
  DeploymentModel m = make_model(2, 1);
  m.clear_physical_link(0, 1);
  const CheckReport report = run_checks(m, ConstraintSet());
  EXPECT_TRUE(report.has(Rule::kIsolatedHost));
  EXPECT_EQ(report.warning_count(), 2u);  // both hosts are now isolated
  EXPECT_TRUE(report.ok());               // warnings do not fail the check
  EXPECT_FALSE(report.clean());
}

TEST(CheckLints, UselessHostWarnsWhenNothingCanFit) {
  DeploymentModel m = make_model(2, 2, 100.0, 10.0);
  m.host(0).memory_capacity = 5.0;  // below the smallest component
  const CheckReport report = run_checks(m, ConstraintSet());
  EXPECT_TRUE(report.has(Rule::kUselessHost));
  EXPECT_TRUE(report.ok());
}

TEST(CheckLints, CanBeDisabled) {
  DeploymentModel m = make_model(2, 1);
  m.clear_physical_link(0, 1);
  CheckOptions options;
  options.lints = false;
  EXPECT_TRUE(run_checks(m, ConstraintSet(), options).clean());
}

// --- report plumbing -------------------------------------------------------

TEST(CheckReport, RenderTextAndJsonCarryRuleIds) {
  const DeploymentModel m = make_model(3, 2);
  ConstraintSet cs;
  cs.allow_only(0, {1});
  cs.forbid_host(0, 1);
  const CheckReport report = run_checks(m, cs);
  ASSERT_EQ(report.error_count(), 1u);
  EXPECT_NE(report.render_text().find("error[location-unsat]"),
            std::string::npos);
  EXPECT_NE(report.render_text().find("component c0"), std::string::npos);
  const util::json::Value doc = report.to_json();
  EXPECT_DOUBLE_EQ(doc.at("errors").as_number(), 1.0);
  EXPECT_EQ(doc.at("diagnostics").as_array().size(), 1u);
  EXPECT_EQ(
      doc.at("diagnostics").as_array()[0].at("rule").as_string(),
      "location-unsat");
}

TEST(CheckReport, CleanModelIsClean) {
  const DeploymentModel m = make_model(3, 4);
  const CheckReport report = run_checks(m, ConstraintSet());
  EXPECT_TRUE(report.clean());
  EXPECT_NE(report.render_text().find("check: clean"), std::string::npos);
}

TEST(Check, GeneratedModelsAreCleanAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto system = desi::Generator::generate(
        {.hosts = 5, .components = 14, .location_constraints = 3,
         .colocation_pairs = 2, .anti_colocation_pairs = 2},
        seed);
    const CheckReport report =
        run_checks(system->model(), system->constraints());
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n"
                             << report.render_text();
  }
}

// --- preflight -------------------------------------------------------------

TEST(Preflight, ThrowsWithDiagnosticsOnBrokenModel) {
  const DeploymentModel m = make_model(2, 3);
  ConstraintSet cs;
  cs.require_colocation(0, 1);
  cs.forbid_colocation(0, 1);
  try {
    preflight(m, cs);
    FAIL() << "preflight must throw on a contradictory constraint set";
  } catch (const PreflightError& e) {
    EXPECT_TRUE(e.report().has(Rule::kColocationConflict));
    EXPECT_NE(std::string(e.what()).find("colocation-conflict"),
              std::string::npos);
  }
}

TEST(Preflight, PassesCleanAndPartitionedModels) {
  EXPECT_NO_THROW(preflight(make_model(3, 4), ConstraintSet()));
  // Network partitions are run-time-legitimate: solvers must still run.
  ConstraintSet cs;
  cs.pin(0, 0);
  cs.pin(1, 2);
  EXPECT_NO_THROW(preflight(make_partitioned(), cs));
}

TEST(Preflight, AlgorithmContainerRejectsBrokenModelBeforeSearching) {
  const auto system = desi::Generator::generate({.hosts = 3,
                                                 .components = 6}, 1);
  system->constraints().require_colocation(0, 1);
  system->constraints().forbid_colocation(0, 1);
  desi::AlgoResultData results;
  desi::AlgorithmContainer container(*system, results);
  const model::AvailabilityObjective availability;
  EXPECT_THROW(container.invoke("avala", availability), PreflightError);
  EXPECT_TRUE(results.entries().empty());  // rejected before any run
}

// --- region-spof -----------------------------------------------------------

TEST(CheckRegionSpof, FlagsAllowListConfinedToOneRegion) {
  DeploymentModel m = make_model(4, 2);
  m.set_host_region(0, 0);
  m.set_host_region(1, 0);
  m.set_host_region(2, 1);
  m.set_host_region(3, 1);
  ConstraintSet cs;
  cs.allow_only(0, {0, 1});  // both legal hosts die with region 0
  const CheckReport report = run_checks(m, cs);
  std::size_t warnings = 0;
  for (const Diagnostic& d : report.diagnostics())
    if (d.rule == Rule::kRegionSpof && d.severity == Severity::kWarning)
      ++warnings;
  EXPECT_EQ(warnings, 1u);
}

TEST(CheckRegionSpof, SilentWhenAllowListSpansRegions) {
  DeploymentModel m = make_model(4, 2);
  m.set_host_region(0, 0);
  m.set_host_region(1, 0);
  m.set_host_region(2, 1);
  m.set_host_region(3, 1);
  ConstraintSet cs;
  cs.allow_only(0, {1, 2});  // regions 0 and 1 both represented
  const CheckReport report = run_checks(m, cs);
  EXPECT_FALSE(report.has(Rule::kRegionSpof));
}

TEST(CheckRegionSpof, SilentOnUnzonedModelsAndWhenDisabled) {
  // No regions declared: the rule must not fire no matter the constraints.
  DeploymentModel flat = make_model(3, 2);
  ConstraintSet cs;
  cs.allow_only(0, {0, 1});
  EXPECT_FALSE(run_checks(flat, cs).has(Rule::kRegionSpof));

  // Zoned and confined, but region awareness switched off.
  DeploymentModel zoned = make_model(4, 2);
  zoned.set_host_region(0, 0);
  zoned.set_host_region(1, 0);
  zoned.set_host_region(2, 1);
  zoned.set_host_region(3, 1);
  ConstraintSet confined;
  confined.allow_only(0, {0, 1});
  CheckOptions options;
  options.region_awareness = false;
  EXPECT_FALSE(run_checks(zoned, confined, options).has(Rule::kRegionSpof));
}

}  // namespace
}  // namespace dif::check
