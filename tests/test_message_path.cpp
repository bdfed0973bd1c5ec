// Allocation budget of the simulated message path (sim + prism).
//
// A counting global operator new (this binary only) measures the
// steady-state heap allocations of the hottest paths: a monitor ping→pong
// round trip, a directed remote application event from Component::send to
// delivery on the peer, and small-capture simulator events. The counts are
// deterministic work counters, so they are asserted as exact upper bounds;
// a change that adds a per-message allocation fails here before it shows in
// a timing.
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "prism/architecture.h"
#include "prism/distribution.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dif::prism {
namespace {

/// Allocations made by `fn`.
template <typename Fn>
std::size_t allocations(Fn&& fn) {
  const std::size_t before = g_allocations;
  fn();
  return g_allocations - before;
}

class Sink final : public Component {
 public:
  explicit Sink(std::string name) : Component(std::move(name)) {}
  void handle(const Event& /*event*/) override { ++received; }
  [[nodiscard]] std::string type_name() const override { return "sink"; }
  std::size_t received = 0;
};

/// Two hosts on a perfect link, one DistributionConnector and one component
/// on each.
struct Pair {
  sim::Simulator sim;
  sim::SimNetwork net{sim, 2, 1};
  SimScaffold scaffold{sim};
  std::vector<std::unique_ptr<Architecture>> archs;
  std::vector<DistributionConnector*> d;
  std::vector<Sink*> sinks;
  std::size_t pongs = 0;

  Pair() {
    net.set_link(0, 1, {.reliability = 1.0, .bandwidth = 1e6, .delay_ms = 1});
    for (model::HostId h = 0; h < 2; ++h) {
      archs.push_back(std::make_unique<Architecture>(
          "arch" + std::to_string(h), scaffold, h));
      d.push_back(&static_cast<DistributionConnector&>(
          archs[h]->add_connector(std::make_unique<DistributionConnector>(
              "d" + std::to_string(h), net, h))));
      sinks.push_back(&static_cast<Sink&>(archs[h]->add_component(
          std::make_unique<Sink>("s" + std::to_string(h)))));
      archs[h]->weld(*sinks[h], *d[h]);
      d[h]->add_peer(1 - h);
      for (model::HostId at = 0; at < 2; ++at)
        d[h]->set_location("s" + std::to_string(at), at);
    }
    d[0]->set_pong_handler(
        [this](model::HostId, std::uint64_t) { ++pongs; });
  }

  void ping(std::uint64_t id) {
    d[0]->send_ping(1, id);
    sim.run();
  }

  /// Directed app event s0 -> s1 with a typical small parameter list.
  static Event app_event() {
    Event e("work");
    e.set_to("s1");
    e.set("seq", 7.0);
    e.set("tag", std::string("payload"));
    return e;
  }
};

TEST(MessagePath, PingPongRoundTripBudget) {
  Pair p;
  for (std::uint64_t id = 0; id < 8; ++id) p.ping(id);  // warm storage
  const std::size_t n = allocations([&] { p.ping(99); });
  EXPECT_EQ(p.pongs, 9u);
  // The ping's 8-byte payload, which the pong reuses; delivery events and
  // in-flight storage allocate nothing once warm.
  EXPECT_LE(n, 1u);
}

TEST(MessagePath, DirectedRemoteEventBudget) {
  Pair p;
  for (int i = 0; i < 8; ++i) {  // warm storage
    p.sinks[0]->send(Pair::app_event());
    p.sim.run();
  }
  Event e = Pair::app_event();
  const std::size_t n = allocations([&] {
    p.sinks[0]->send(std::move(e));
    p.sim.run();
  });
  EXPECT_EQ(p.sinks[1]->received, 9u);
  // Sender: the wire image. Receiver: the decoded parameter list, the
  // shared event and the dispatch closure.
  EXPECT_LE(n, 4u);
}

TEST(MessagePath, SmallCaptureEventsAllocateNothingWhenWarm) {
  constexpr int kEvents = 1000;
  sim::Simulator sim;
  int fired = 0;
  const auto schedule_all = [&] {
    for (int i = 0; i < kEvents; ++i)
      sim.schedule_after(i % 7, [&fired] { ++fired; });
  };
  schedule_all();
  sim.run();
  EXPECT_EQ(allocations([&] {
              schedule_all();
              sim.run();
            }),
            0u);
  // Storage released by clear() is reused too.
  schedule_all();
  sim.clear();
  EXPECT_EQ(allocations([&] {
              schedule_all();
              sim.run();
            }),
            0u);
  EXPECT_EQ(fired, 3 * kEvents);
}

}  // namespace
}  // namespace dif::prism
