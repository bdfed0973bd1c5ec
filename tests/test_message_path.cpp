// Allocation budget of the simulated message path (sim + prism).
//
// A counting global operator new (this binary only) measures the
// steady-state heap allocations of the hottest paths: a monitor ping→pong
// round trip, directed local and remote application events and a local
// broadcast from Component::send to delivery, and simulator events whose
// closures are the size of the hot ones. The counts are deterministic work
// counters, so they are asserted as exact bounds; a change that adds a
// per-message allocation fails here before it shows in a timing.
#include <array>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

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
    d[0]->set_pong_handler([this](model::HostId) { ++pongs; });
  }

  void ping() {
    d[0]->send_ping(1);
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
  for (int i = 0; i < 8; ++i) p.ping();  // warm storage
  const std::size_t n = allocations([&] { p.ping(); });
  EXPECT_EQ(p.pongs, 9u);
  // A probe has no payload, and its delivery tasks (which own the message)
  // fit the simulator's inline task storage.
  EXPECT_EQ(n, 0u);
}

TEST(MessagePath, DirectedLocalEventBudget) {
  Pair p;
  auto& local = static_cast<Sink&>(
      p.archs[0]->add_component(std::make_unique<Sink>("t0")));
  p.archs[0]->weld(local, *p.d[0]);
  const auto event = [] {
    Event e("work");
    e.set_to("t0");
    e.set("seq", 7.0);
    return e;
  };
  for (int i = 0; i < 8; ++i) {  // warm storage
    p.sinks[0]->send(event());
    p.sim.run();
  }
  Event e = event();
  const std::size_t n = allocations([&] {
    p.sinks[0]->send(std::move(e));
    p.sim.run();
  });
  EXPECT_EQ(local.received, 9u);
  EXPECT_EQ(p.sinks[1]->received, 0u);
  // The one shared Event; the dispatch closure is stored inline.
  EXPECT_EQ(n, 1u);
}

TEST(MessagePath, LocalBroadcastBudget) {
  sim::Simulator sim;
  SimScaffold scaffold{sim};
  Architecture arch("arch", scaffold, 0);
  Connector& bus = arch.add_connector(std::make_unique<Connector>("bus"));
  std::vector<Sink*> sinks;
  for (const char* name : {"s0", "s1", "s2", "s3"}) {
    sinks.push_back(&static_cast<Sink&>(
        arch.add_component(std::make_unique<Sink>(name))));
    arch.weld(*sinks.back(), bus);
  }
  const auto event = [] {
    Event e("tick");
    e.set("seq", 7.0);
    return e;
  };
  for (int i = 0; i < 8; ++i) {  // warm storage
    sinks[0]->send(event());
    sim.run();
  }
  Event e = event();
  const std::size_t n = allocations([&] {
    sinks[0]->send(std::move(e));
    sim.run();
  });
  EXPECT_EQ(sinks[0]->received, 0u);
  for (std::size_t i = 1; i < sinks.size(); ++i)
    EXPECT_EQ(sinks[i]->received, 9u);
  // Three recipients share one Event.
  EXPECT_EQ(n, 1u);
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
  // Sender: the shared event and its wire image. Receiver: the decoded
  // parameter list and the shared event.
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

TEST(MessagePath, HotClosureSizesAllocateNothingWhenWarm) {
  constexpr int kEvents = 1000;
  sim::Simulator sim;
  int dispatched = 0;
  std::uint64_t ticked = 0;
  const auto shared = std::make_shared<const Event>("work");
  const std::string name = "c12";
  // Shaped like Architecture::post_to's dispatch (architecture pointer,
  // component name, shared event) and the workload tick (architecture
  // pointer, component name, epoch, link index).
  const auto dispatch = [&dispatched, component = name, event = shared] {
    dispatched += !component.empty() && event != nullptr;
  };
  const auto tick = [&ticked, self = name, epoch = std::uint64_t{3},
                     index = std::size_t{1}] {
    ticked += epoch + index + self.size();
  };
  static_assert(sizeof(dispatch) == sim::Task::kInlineBytes);
  static_assert(sizeof(tick) == sim::Task::kInlineBytes);
  static_assert(sim::Task::stored_inline<std::decay_t<decltype(dispatch)>>);
  static_assert(sim::Task::stored_inline<std::decay_t<decltype(tick)>>);
  const auto schedule_all = [&] {
    for (int i = 0; i < kEvents; ++i) {
      sim.schedule_after(i % 7, dispatch);
      sim.schedule_after(i % 5, tick);
    }
  };
  schedule_all();
  sim.run();
  EXPECT_EQ(allocations([&] {
              schedule_all();
              sim.run();
            }),
            0u);
  EXPECT_EQ(dispatched, 2 * kEvents);
  EXPECT_EQ(ticked, 2u * kEvents * 7u);
}

TEST(MessagePath, OversizedCaptureAllocatesOnceAndKeepsOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  std::array<char, sim::Task::kInlineBytes> bulk{};
  bulk[0] = 1;
  const auto big = [&order, bulk](int id) {
    return [&order, bulk, id] { order.push_back(id + bulk[0] - 1); };
  };
  static_assert(!sim::Task::stored_inline<std::decay_t<decltype(big(0))>>);
  const auto small = [&order](int id) {
    return [&order, id] { order.push_back(id); };
  };
  // Warm the simulator's storage, then time one oversized event alone.
  for (int i = 0; i < 8; ++i) sim.schedule_after(i, small(i));
  sim.run();
  order.clear();
  EXPECT_EQ(allocations([&] {
              sim.schedule_after(1.0, big(0));
              sim.run();
            }),
            1u);
  // Heap-held and inline tasks interleave in (time, seq) order.
  order.clear();
  sim.schedule_after(2.0, big(3));
  sim.schedule_after(1.0, small(0));
  sim.schedule_after(1.0, big(1));
  sim.schedule_after(2.0, small(4));
  sim.schedule_after(1.0, small(2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace dif::prism
