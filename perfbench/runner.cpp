// Benchmark runner: one workload, one process, one thread.
//
// Drives one workload's block of units through the libraries' public APIs
// and prints one raw JSON document (schema "perfbench-raw-v1") on stdout:
// per-unit thread-CPU and wall times, a digest of every unit's report, the
// deterministic outputs those reports carry, and the output checks. With
// --trace 1 it instead runs a fixed traced block: each unit untraced, then
// traced with an obs::Registry attached, then a "drive" leg that calls each
// layer's public functions itself inside spans. perfbench/run.py turns the
// document into metrics; nothing here aggregates.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "algo/registry.h"
#include "chaos/campaign.h"
#include "chaos/fault_schedule.h"
#include "chaos/scenario.h"
#include "check/audit.h"
#include "check/plan_check.h"
#include "check/preflight.h"
#include "check/resilience.h"
#include "core/centralized_instantiation.h"
#include "core/improvement_loop.h"
#include "desi/generator.h"
#include "heal/recovery.h"
#include "model/constraints.h"
#include "model/incremental.h"
#include "model/objective.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "traffic/runner.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"

// Live C++ heap bytes and their high-water mark, counted by the global
// operator new/delete below (which the statically linked libraries use
// too). Deterministic for a given seed, unlike the resident set, which
// depends on allocator reuse and on the single largest unit of a block.
namespace {
std::atomic<std::int64_t> g_heap_live{0};
std::atomic<std::int64_t> g_heap_peak{0};

void note_alloc(void* p) noexcept {
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_heap_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_heap_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_heap_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_heap_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t /*n*/) noexcept {
  ::operator delete(p);
}

namespace perfbench {
namespace {

using dif::util::json::Array;
using dif::util::json::Object;
using dif::util::json::Value;
namespace chaos = dif::chaos;
namespace check = dif::check;
namespace core = dif::core;
namespace desi = dif::desi;
namespace heal = dif::heal;
namespace model = dif::model;
namespace obs = dif::obs;
namespace traffic = dif::traffic;

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a 64 of a report's bytes, as 16 hex digits.
std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Spans kept in memory as (name, start, end, parent, unit), CPU ms, and
/// written out once at exit. A span's layer is its name up to the first dot.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  template <class F>
  decltype(auto) span(const char* name, std::int64_t unit, F&& f) {
    if (!on_) return f();
    struct Closer {
      Tracer& tracer;
      std::size_t index;
      ~Closer() { tracer.close(index); }
    } closer{*this, open(name, unit)};
    return f();
  }

  [[nodiscard]] Value to_json() const {
    Array out;
    for (const Span& s : spans_)
      out.emplace_back(Array{Value(s.name), Value(s.start_ms),
                             Value(s.end_ms), Value(s.parent),
                             Value(s.unit)});
    return Value(std::move(out));
  }

 private:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::int64_t parent = -1;
    std::int64_t unit = -1;
  };

  std::size_t open(const char* name, std::int64_t unit) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back({name, cpu_ms(), 0.0, parent, unit});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_ms = cpu_ms();
    stack_.pop_back();
  }

  bool on_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// What a unit call may use: the tracer (off in untraced runs), the obs
/// handle (null in untraced runs), and the unit id spans are tagged with.
struct Ctx {
  Tracer& tracer;
  obs::Instruments instruments;
  std::int64_t unit = -1;
};

/// Deterministic outcome of one unit, built after its timed section.
struct Unit {
  std::string id;
  std::string digest;
  std::uint64_t attempted = 1;
  std::uint64_t failed = 0;
  double sim_ms = 0.0;
  double heap_peak_kb = 0.0;  // live heap high-water mark during the unit
  Object out;
  Value metrics;  // obs registry document, when the unit produced one
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The stated input size.
  [[nodiscard]] virtual Object config() const = 0;
  /// Builds and validates the inputs. Repeated, timed as setup.
  virtual void setup(Tracer& tracer) = 0;
  [[nodiscard]] virtual std::size_t block() const = 0;
  [[nodiscard]] virtual std::size_t traced_block() const = 0;
  /// Returns to the state right after setup (for stateful blocks).
  virtual void reset() {}
  /// The timed unit.
  virtual void run(std::size_t i, Ctx& ctx) = 0;
  /// Untimed: digest and deterministic outputs of the unit just run.
  [[nodiscard]] virtual Unit collect(std::size_t i) = 0;
  /// Traced runs only: calls each layer's public functions on unit i's
  /// inputs, inside spans.
  virtual void drive(std::size_t /*i*/, Ctx& /*ctx*/, Object& /*out*/) {}
  /// Output checks after the block.
  virtual void final_checks(std::vector<Check>& /*checks*/) {}
};

/// Model-level layer calls on a generated system, spanned: evaluator build,
/// a hill-climb replan, the four check entry points and a recovery plan for
/// the most loaded host. Shared by every drive leg.
void probe_layers(const desi::SystemData& system, std::uint64_t seed,
                  Ctx& ctx, Object& out) {
  Tracer& t = ctx.tracer;
  const model::DeploymentModel& m = system.model();
  const model::ConstraintSet& cs = system.constraints();
  const model::Deployment& initial = system.deployment();
  const model::AvailabilityObjective objective;
  t.span("model.evaluator_build", ctx.unit, [&] {
    (void)model::IncrementalEvaluator::try_create(objective, m);
  });
  const dif::algo::AlgoResult replan = t.span("algo.replan", ctx.unit, [&] {
    const model::ConstraintChecker checker(m, cs);
    dif::algo::AlgoOptions options;
    options.initial = initial;
    options.seed = seed;
    options.max_evaluations = 20'000;
    return dif::algo::AlgorithmRegistry::with_defaults()
        .create("hillclimb")
        ->run(m, objective, checker, options);
  });
  const model::Deployment& proposed =
      replan.feasible ? replan.deployment : initial;
  std::vector<check::PlanTask> plan;
  for (model::ComponentId c = 0; c < initial.size(); ++c)
    if (initial.host_of(c) != proposed.host_of(c))
      plan.push_back({m.component(c).name, initial.host_of(c),
                      proposed.host_of(c)});
  std::size_t diagnostics = 0;
  diagnostics += t.span("check.preflight", ctx.unit, [&] {
                    return check::preflight_report(m, cs);
                  }).diagnostics().size();
  diagnostics += t.span("check.plan", ctx.unit, [&] {
                    return check::check_plan(m, cs, initial, plan);
                  }).diagnostics().size();
  diagnostics += t.span("check.audit", ctx.unit, [&] {
                    return check::PlacementAuditor().audit(m, cs, proposed);
                  }).diagnostics().size();
  diagnostics += t.span("check.resilience", ctx.unit, [&] {
                    return check::ResilienceProver().prove(m, proposed);
                  }).diagnostics().size();
  model::HostId dead = 0;
  std::size_t most = 0;
  for (model::HostId h = 0; h < m.host_count(); ++h)
    if (initial.components_on(h).size() > most) {
      most = initial.components_on(h).size();
      dead = h;
    }
  t.span("heal.plan", ctx.unit, [&] {
    return heal::RecoveryPlanner(system, {}).plan(initial, dead, {});
  });
  out["algo_evaluations"] = Value(replan.evaluations);
  out["check_diagnostics"] = Value(static_cast<std::uint64_t>(diagnostics));
}

// --- campaign-mixed / heal-killhost ---------------------------------------

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(chaos::CampaignConfig base, std::uint64_t seed,
                   std::size_t seeds, std::size_t traced_seeds)
      : base_(std::move(base)), traced_seeds_(traced_seeds) {
    for (std::size_t i = 0; i < seeds; ++i)
      seeds_.push_back(seed * seeds + i);
    if (base_.centralized) modes_.emplace_back("centralized");
    if (base_.decentralized) modes_.emplace_back("decentralized");
  }

  [[nodiscard]] Object config() const override {
    Object c;
    c["scenario"] = Value(base_.scenario.name);
    c["hosts"] = Value(static_cast<std::uint64_t>(base_.generator.hosts));
    c["components"] =
        Value(static_cast<std::uint64_t>(base_.generator.components));
    c["modes"] = Value(static_cast<std::uint64_t>(modes_.size()));
    c["recovery"] = Value(base_.recovery);
    c["seeds"] = Value(static_cast<std::uint64_t>(seeds_.size()));
    c["first_seed"] = Value(seeds_.front());
    c["sim_ms_per_unit"] = Value(sim_ms());
    return c;
  }

  void setup(Tracer& t) override {
    // Generate and validate every block seed's system and fault schedule:
    // inputs that fail pre-flight or inject nothing would measure nothing.
    for (const std::uint64_t seed : seeds_) {
      const auto system = t.span("desi.generate", -1, [&] {
        return desi::Generator::generate(base_.generator, seed);
      });
      const check::CheckReport pre = t.span("check.preflight", -1, [&] {
        return check::preflight_report(system->model(),
                                       system->constraints());
      });
      const chaos::FaultSchedule schedule = t.span("chaos.compile", -1, [&] {
        return chaos::FaultSchedule::compile(base_.scenario, system->model(),
                                             0, seed);
      });
      if (!pre.ok() || schedule.actions().empty())
        throw std::runtime_error("unusable generated input, seed " +
                                 std::to_string(seed));
    }
  }

  [[nodiscard]] std::size_t block() const override {
    return seeds_.size() * modes_.size();
  }
  [[nodiscard]] std::size_t traced_block() const override {
    return traced_seeds_ * modes_.size();
  }

  void run(std::size_t i, Ctx& ctx) override {
    chaos::CampaignConfig c = base_;
    c.seeds = {seed_of(i)};
    c.centralized = mode_of(i) == "centralized";
    c.decentralized = !c.centralized;
    chaos::CampaignRunner runner(std::move(c), ctx.instruments);
    const std::string span = "chaos.run." + mode_of(i);
    report_ = ctx.tracer.span(span.c_str(), ctx.unit,
                              [&] { return runner.run(); });
  }

  [[nodiscard]] Unit collect(std::size_t i) override {
    Unit u;
    u.id = std::to_string(seed_of(i)) + "/" + mode_of(i);
    u.digest = digest(report_.to_json().dump());
    u.sim_ms = sim_ms();
    const chaos::RunReport& r = report_.runs.at(0);
    u.failed = r.violations.empty() ? 0 : 1;
    Array violated;
    for (const chaos::InvariantViolation& v : r.violations)
      violated.emplace_back(v.invariant);
    std::uint64_t faults = 0;
    for (const auto& [kind, n] : r.faults) faults += n;
    u.out["violations"] = Value(std::move(violated));
    u.out["availability_final"] = Value(r.final_availability);
    u.out["faults"] = Value(faults);
    u.out["net_sent"] = Value(r.net_sent);
    if (r.recovery_enabled) {
      Array mttr;
      const Value& rec = *r.recovery;
      for (const Value& e : rec.at("events").as_array())
        if (e.at("committed") == Value(true))
          mttr.emplace_back(e.at("committed_at_ms").as_number() -
                            e.at("condemned_at_ms").as_number());
      u.out["mttr_ms"] = Value(std::move(mttr));
      u.out["condemnations"] = Value(r.condemnations);
      u.out["rejoins"] = Value(r.rejoins);
      u.out["recoveries_started"] = rec.at("recoveries_started");
      u.out["recoveries_committed"] = Value(r.recoveries_committed);
    }
    return u;
  }

  /// Rebuilds unit i's centralized run from public calls, mirroring
  /// CampaignRunner::run_centralized_once without its epoch and
  /// convergence probes (which only read state), so that generation,
  /// instantiation, sim slices and the judge each get a span.
  void drive(std::size_t i, Ctx& ctx, Object& out) override {
    if (mode_of(i) != "centralized") return;
    Tracer& t = ctx.tracer;
    const std::uint64_t seed = seed_of(i);
    const auto system = t.span("desi.generate", ctx.unit, [&] {
      return desi::Generator::generate(base_.generator, seed);
    });
    const auto pristine = t.span("desi.generate", ctx.unit, [&] {
      return desi::Generator::generate(base_.generator, seed);
    });
    core::FrameworkConfig fc;
    fc.master_host = 0;
    fc.seed = seed;
    fc.deployer.redeploy_timeout_ms = base_.redeploy_timeout_ms;
    fc.deployer.rollback_timeout_ms = base_.rollback_timeout_ms;
    fc.deployer.allow_partial = base_.allow_partial;
    const model::AvailabilityObjective objective;
    core::ImprovementLoop::Config lc;
    lc.interval_ms = base_.improve_interval_ms;
    lc.seed = seed;
    lc.enable_escalation = true;

    std::unique_ptr<core::CentralizedInstantiation> inst;
    std::unique_ptr<core::ImprovementLoop> loop;
    t.span("core.instantiate", ctx.unit, [&] {
      inst = std::make_unique<core::CentralizedInstantiation>(*system, fc);
      loop = std::make_unique<core::ImprovementLoop>(*inst, objective, lc);
    });
    chaos::FaultInjector injector(*inst, {});
    t.span("chaos.arm", ctx.unit, [&] {
      injector.arm(chaos::FaultSchedule::compile(
          base_.scenario, system->model(), fc.master_host, seed));
    });
    std::unique_ptr<heal::HealController> healer;
    if (base_.recovery)
      t.span("heal.attach", ctx.unit, [&] {
        heal::HealConfig hc = base_.heal;
        hc.seed = seed + 1;
        healer = std::make_unique<heal::HealController>(*inst, *pristine, hc);
      });
    t.span("core.instantiate", ctx.unit, [&] {
      loop->start();
      if (healer) healer->start();
      inst->start();
    });
    const auto run_to = [&](double from, double to) {
      constexpr double kSliceMs = 1'000.0;
      for (double at = from + kSliceMs;; at += kSliceMs) {
        const double until = std::min(at, to);
        t.span("sim.run_until", ctx.unit,
               [&] { inst->simulator().run_until(until); });
        if (until >= to) break;
      }
    };
    const double duration = base_.scenario.duration_ms;
    run_to(0.0, duration);
    loop->stop();
    run_to(duration, duration + base_.settle_ms);
    if (healer) healer->stop();
    chaos::RunReport judged;
    t.span("chaos.judge", ctx.unit, [&] {
      chaos::judge_centralized_invariants(*inst, *system, *pristine,
                                          base_.availability_tolerance,
                                          judged);
    });
    out["sim_events"] = Value(inst->simulator().events_processed());
    ++drives_;
    if (inst->network().stats().sent != report_.runs.at(0).net_sent)
      ++drive_mismatches_;
    probe_layers(*pristine, seed, ctx, out);
  }

  void final_checks(std::vector<Check>& checks) override {
    // The spanned rebuild must be the run the runner made: same message
    // count on the same seed.
    if (drives_ > 0)
      checks.push_back({"drive_reproduces_runner", drive_mismatches_ == 0,
                        std::to_string(drive_mismatches_) + " of " +
                            std::to_string(drives_) +
                            " drive legs sent a different message count"});
  }

 private:
  [[nodiscard]] std::uint64_t seed_of(std::size_t i) const {
    return seeds_.at(i / modes_.size());
  }
  [[nodiscard]] const std::string& mode_of(std::size_t i) const {
    return modes_.at(i % modes_.size());
  }
  [[nodiscard]] double sim_ms() const {
    return base_.scenario.duration_ms + base_.settle_ms;
  }

  chaos::CampaignConfig base_;
  std::size_t traced_seeds_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::string> modes_;
  std::size_t drives_ = 0;
  std::size_t drive_mismatches_ = 0;
  chaos::CampaignReport report_;
};

// --- traffic-flash --------------------------------------------------------

class TrafficWorkload final : public Workload {
 public:
  TrafficWorkload(std::uint64_t seed, std::size_t sessions,
                  std::size_t traced_sessions)
      : traced_sessions_(traced_sessions) {
    for (std::size_t i = 0; i < sessions; ++i)
      seeds_.push_back(seed * sessions + i + 1);
    options_.generator.hosts = 16;
    options_.generator.components = 48;
    options_.duration_ms = 12'000.0;
    options_.engine.rps = 150.0;
    options_.engine.shape = traffic::IntensityShape::kFlash;
    options_.engine.flash_at_ms = 4'000.0;
    options_.engine.flash_duration_ms = 5'000.0;
    options_.engine.tenants = {{"t0", 2.0, 0.6}, {"t1", 1.0, 0.6}};
    options_.ratekeeper.enabled = true;
    options_.redeploy_at_ms = 2'000.0;
    options_.redeploy_every_ms = 8'000.0;
    options_.redeploy_moves = 2;
  }

  [[nodiscard]] Object config() const override {
    Object c;
    c["hosts"] = Value(static_cast<std::uint64_t>(options_.generator.hosts));
    c["components"] =
        Value(static_cast<std::uint64_t>(options_.generator.components));
    c["sessions"] = Value(static_cast<std::uint64_t>(seeds_.size()));
    c["first_seed"] = Value(seeds_.front());
    c["arrival"] = Value("open");
    c["shape"] = Value("flash");
    c["rps"] = Value(options_.engine.rps);
    c["tenants"] =
        Value(static_cast<std::uint64_t>(options_.engine.tenants.size()));
    c["flash_at_ms"] = Value(options_.engine.flash_at_ms);
    c["flash_duration_ms"] = Value(options_.engine.flash_duration_ms);
    c["flash_multiplier"] = Value(options_.engine.flash_multiplier);
    c["redeploy_every_ms"] = Value(options_.redeploy_every_ms);
    c["sim_ms_per_unit"] = Value(options_.duration_ms);
    return c;
  }

  void setup(Tracer& t) override {
    for (const std::uint64_t seed : seeds_) {
      const auto system = t.span("desi.generate", -1, [&] {
        return desi::Generator::generate(options_.generator, seed);
      });
      const check::CheckReport pre = t.span("check.preflight", -1, [&] {
        return check::preflight_report(system->model(),
                                       system->constraints());
      });
      if (!pre.ok())
        throw std::runtime_error("generated system fails pre-flight, seed " +
                                 std::to_string(seed));
    }
  }

  [[nodiscard]] std::size_t block() const override { return seeds_.size(); }
  [[nodiscard]] std::size_t traced_block() const override {
    return traced_sessions_;
  }

  void run(std::size_t i, Ctx& ctx) override {
    traffic::RunOptions o = options_;
    o.seed = seeds_.at(i);
    result_ = ctx.tracer.span("traffic.session", ctx.unit,
                              [&] { return traffic::run_traffic(o); });
  }

  [[nodiscard]] Unit collect(std::size_t i) override {
    Unit u;
    u.id = std::to_string(seeds_.at(i));
    u.digest = digest(result_.report.dump());
    u.sim_ms = options_.duration_ms;
    u.attempted = result_.offered;
    u.failed = result_.failed + result_.shed;
    u.out["offered"] = Value(result_.offered);
    u.out["completed"] = Value(result_.completed);
    u.out["failed"] = Value(result_.failed);
    u.out["shed"] = Value(result_.shed);
    u.out["slo_violation_ms"] = Value(result_.slo_violation_ms);
    u.out["throttle_actions"] =
        result_.report.at("ratekeeper").at("throttle_actions");
    u.out["sim_events"] = result_.report.at("sim").at("events");
    u.out["rounds"] = Value(result_.rounds);
    u.out["committed"] = Value(result_.committed);
    u.out["migrations"] = Value(result_.migrations);
    // The registry minus per-link and per-host series: the tenant latency
    // histograms and the layer counters are what the report reads.
    Object metrics;
    for (const auto& [kind, entries] : result_.metrics.as_object()) {
      if (!entries.is_object()) continue;
      Object kept;
      for (const auto& [name, v] : entries.as_object())
        if (name.rfind("net.link.", 0) != 0 &&
            name.rfind("traffic.host.", 0) != 0)
          kept[name] = v;
      metrics[kind] = Value(std::move(kept));
    }
    u.metrics = Value(std::move(metrics));
    return u;
  }

  void drive(std::size_t i, Ctx& ctx, Object& out) override {
    Tracer& t = ctx.tracer;
    const std::uint64_t seed = seeds_.at(i);
    const auto system = t.span("desi.generate", ctx.unit, [&] {
      return desi::Generator::generate(options_.generator, seed);
    });
    core::FrameworkConfig fc;
    fc.seed = seed;
    t.span("core.instantiate", ctx.unit, [&] {
      core::CentralizedInstantiation inst(*system, fc);
      inst.start();
    });
    probe_layers(*system, seed, ctx, out);
  }

 private:
  traffic::RunOptions options_;
  std::size_t traced_sessions_;
  std::vector<std::uint64_t> seeds_;
  traffic::RunResult result_;
};

// --- fleet-replan ---------------------------------------------------------

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, std::size_t cycles,
                std::size_t traced_cycles)
      : seed_(seed), cycles_(cycles), traced_cycles_(traced_cycles) {
    // The bench_check / bench_scalability sparse shape plus regions and
    // constraints, at 500 hosts so that three passes of the block fit in a
    // 20 s run (a 1000-host cycle costs about 300 ms).
    spec_.hosts = 500;
    spec_.components = 1'000;
    spec_.regions = 4;
    spec_.interaction_density = 0.004;
    spec_.link_density = 0.01;
    spec_.location_constraints = 64;
    spec_.colocation_pairs = 32;
    spec_.anti_colocation_pairs = 32;
  }

  [[nodiscard]] Object config() const override {
    Object c;
    c["hosts"] = Value(static_cast<std::uint64_t>(spec_.hosts));
    c["components"] = Value(static_cast<std::uint64_t>(spec_.components));
    c["regions"] = Value(static_cast<std::uint64_t>(spec_.regions));
    c["cycles"] = Value(static_cast<std::uint64_t>(cycles_));
    c["replan_max_evaluations"] = Value(kReplanEvaluations);
    c["seed"] = Value(seed_);
    return c;
  }

  void setup(Tracer& t) override {
    system_.reset();
    pristine_.reset();
    evaluator_.reset();
    system_ = t.span("desi.generate", -1, [&] {
      return desi::Generator::generate(spec_, seed_);
    });
    pristine_ = t.span("desi.generate", -1, [&] {
      return desi::Generator::generate(spec_, seed_);
    });
    const check::CheckReport pre = t.span("check.preflight", -1, [&] {
      return check::preflight_report(system_->model(),
                                     system_->constraints());
    });
    if (!pre.ok()) throw std::runtime_error("fleet fails pre-flight");
    // Scores placements on the pristine links (availability_final).
    evaluator_ = t.span("model.evaluator_build", -1, [&] {
      return model::IncrementalEvaluator::try_create(objective_,
                                                     pristine_->model());
    });
    if (!evaluator_) throw std::runtime_error("objective not incremental");
    // Settle near a local optimum so each cycle's replan is driven by its
    // perturbation, not by leftover global improvements.
    const dif::algo::AlgoResult settled = t.span("algo.replan", -1, [&] {
      const model::ConstraintChecker checker(system_->model(),
                                             system_->constraints());
      dif::algo::AlgoOptions options;
      options.initial = system_->deployment();
      options.seed = seed_;
      options.max_evaluations = kSettleEvaluations;
      return registry_.create("hillclimb")
          ->run(system_->model(), objective_, checker, options);
    });
    settled_ = settled.feasible ? settled.deployment : system_->deployment();
    reset();
  }

  [[nodiscard]] std::size_t block() const override { return cycles_; }
  [[nodiscard]] std::size_t traced_block() const override {
    return traced_cycles_;
  }

  void reset() override {
    model::DeploymentModel& m = system_->model();
    for (const model::HostId h : touched_)
      for (model::HostId o = 0; o < m.host_count(); ++o)
        if (o != h && m.connected(h, o))
          m.set_link_reliability(
              h, o, pristine_->model().physical_link(h, o).reliability);
    touched_.clear();
    current_ = settled_;
    rng_ = dif::util::Xoshiro256ss(seed_).fork(0xf1ee7);
  }

  void run(std::size_t i, Ctx& ctx) override {
    Tracer& t = ctx.tracer;
    model::DeploymentModel& m = system_->model();
    const model::ConstraintSet& cs = system_->constraints();
    host_ = static_cast<model::HostId>(rng_.index(m.host_count()));
    t.span("model.perturb", ctx.unit, [&] {
      for (model::HostId o = 0; o < m.host_count(); ++o)
        if (o != host_ && m.connected(host_, o))
          m.set_link_reliability(
              host_, o,
              pristine_->model().physical_link(host_, o).reliability *
                  rng_.uniform(0.5, 1.0));
    });
    touched_.push_back(host_);
    const check::CheckReport pre = t.span("check.preflight", ctx.unit, [&] {
      return check::preflight_report(m, cs);
    });
    const dif::algo::AlgoResult replan = t.span("algo.replan", ctx.unit, [&] {
      const model::ConstraintChecker checker(m, cs);
      dif::algo::AlgoOptions options;
      options.initial = current_;
      options.seed = seed_ + i;
      options.max_evaluations = kReplanEvaluations;
      options.warm_start = true;
      options.dirty_components = current_.components_on(host_);
      return registry_.create("hillclimb")->run(m, objective_, checker,
                                                options);
    });
    const model::Deployment& proposed =
        replan.feasible ? replan.deployment : current_;
    std::vector<check::PlanTask> plan;
    for (model::ComponentId c = 0; c < proposed.size(); ++c)
      if (current_.host_of(c) != proposed.host_of(c))
        plan.push_back({m.component(c).name, current_.host_of(c),
                        proposed.host_of(c)});
    const check::CheckReport plan_report = t.span("check.plan", ctx.unit, [&] {
      return check::check_plan(m, cs, current_, plan);
    });
    const check::CheckReport audit = t.span("check.audit", ctx.unit, [&] {
      return check::PlacementAuditor().audit(m, cs, proposed);
    });
    const check::CheckReport resilience =
        t.span("check.resilience", ctx.unit, [&] {
          return check::ResilienceProver().prove(m, proposed);
        });
    rejected_ = !pre.ok() || !replan.feasible || !plan_report.ok() ||
                !audit.ok();
    if (!rejected_) current_ = proposed;
    evaluations_ = replan.evaluations;
    moves_ = plan.size();
    diagnostics_ = pre.diagnostics().size() +
                   plan_report.diagnostics().size() +
                   audit.diagnostics().size() +
                   resilience.diagnostics().size();
  }

  [[nodiscard]] Unit collect(std::size_t i) override {
    Unit u;
    u.id = std::to_string(i);
    u.failed = rejected_ ? 1 : 0;
    evaluator_->reset(current_);
    const double availability = evaluator_->value();
    std::string state = std::to_string(host_) + ":" +
                        std::to_string(evaluations_) + ":" +
                        std::to_string(moves_) + ":" +
                        std::to_string(diagnostics_) + ":";
    for (const model::HostId h : current_.assignment())
      state += std::to_string(h) + ",";
    u.digest = digest(state);
    u.out["host"] = Value(static_cast<std::uint64_t>(host_));
    u.out["evaluations"] = Value(evaluations_);
    u.out["moves"] = Value(static_cast<std::uint64_t>(moves_));
    u.out["diagnostics"] = Value(static_cast<std::uint64_t>(diagnostics_));
    u.out["availability_final"] = Value(availability);
    return u;
  }

  void drive(std::size_t /*i*/, Ctx& ctx, Object& /*out*/) override {
    // The unit itself is the sequence of layer calls, already spanned; the
    // drive adds recovery planning for the perturbed host at fleet scale.
    ctx.tracer.span("heal.plan", ctx.unit, [&] {
      return heal::RecoveryPlanner(*pristine_, {}).plan(current_, host_, {});
    });
  }

  void final_checks(std::vector<Check>& checks) override {
    // The placement the accepted plans built re-audits clean from a fresh
    // analysis context.
    const check::CheckReport audit = check::PlacementAuditor().audit(
        system_->model(), system_->constraints(), current_);
    checks.push_back({"fleet.final_placement_reaudits_clean",
                      audit.ok() && current_.complete(),
                      std::to_string(audit.error_count()) + " errors"});
  }

 private:
  static constexpr std::uint64_t kSettleEvaluations = 400'000;
  static constexpr std::uint64_t kReplanEvaluations = 20'000;

  std::uint64_t seed_;
  std::size_t cycles_;
  std::size_t traced_cycles_;
  desi::GeneratorSpec spec_;
  const model::AvailabilityObjective objective_;
  const dif::algo::AlgorithmRegistry registry_ =
      dif::algo::AlgorithmRegistry::with_defaults();
  std::unique_ptr<desi::SystemData> system_;
  std::unique_ptr<desi::SystemData> pristine_;
  std::optional<model::IncrementalEvaluator> evaluator_;
  model::Deployment settled_;
  model::Deployment current_;
  std::vector<model::HostId> touched_;
  dif::util::Xoshiro256ss rng_;
  model::HostId host_ = 0;
  bool rejected_ = false;
  std::uint64_t evaluations_ = 0;
  std::size_t moves_ = 0;
  std::size_t diagnostics_ = 0;
};

// --- driver ---------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "campaign-mixed") {
    chaos::CampaignConfig c;
    c.scenario = chaos::scenario_by_name("mixed");
    return std::make_unique<CampaignWorkload>(std::move(c), seed, 48, 12);
  }
  if (name == "heal-killhost")
    return std::make_unique<CampaignWorkload>(
        chaos::recovery_campaign_config(), seed, 80, 12);
  if (name == "traffic-flash")
    return std::make_unique<TrafficWorkload>(seed, 40, 8);
  if (name == "fleet-replan")
    return std::make_unique<FleetWorkload>(seed, 40, 12);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// A fixed discrete-event kernel shaped like the simulator's work: an event
/// heap delivering small string messages into hashed inboxes. It lives in
/// the benchmark, so no change to the program moves it; what moves it is
/// the host. Timed right after every unit and set-up, it lets run.py report
/// work in reference-core terms. On the shared host, other tenants slowed
/// every workload's units by up to 2.2x for minutes at a time; this kernel
/// slowed with them to within about 8% (15% for heal-killhost), where a
/// pure ALU loop or a cache-missing pointer walk slowed by only a third as
/// much.
double reference_ms() {
  const double start = cpu_ms();
  struct Event {
    double t;
    std::uint32_t node;
    std::uint32_t seq;
  };
  const auto later = [](const Event& a, const Event& b) {
    return a.t > b.t || (a.t == b.t && a.seq > b.seq);
  };
  std::vector<Event> heap;
  std::unordered_map<std::uint32_t, std::vector<std::string>> inbox;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sum = 0;
  std::uint32_t seq = 0;
  for (std::uint32_t n = 0; n < 2000; ++n)
    heap.push_back({static_cast<double>(n), n, seq++});
  std::make_heap(heap.begin(), heap.end(), later);
  for (int step = 0; step < 40'000; ++step) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Event e = heap.back();
    heap.pop_back();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto& box = inbox[static_cast<std::uint32_t>(x % 5000)];
    box.push_back("msg:" + std::to_string(e.seq) + ":" +
                  std::to_string(e.node));
    if (box.size() > 4) {
      sum += box.front().size();
      box.erase(box.begin());
    }
    heap.push_back({e.t + static_cast<double>(x % 1000) * 1e-3,
                    static_cast<std::uint32_t>(x % 2000), seq++});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  volatile std::uint64_t sink = sum;
  (void)sink;
  return cpu_ms() - start;
}

/// Fixed integer loop; its CPU time tells machine drift from regression.
double calibration_ms() {
  const double start = cpu_ms();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return cpu_ms() - start;
}

/// This process image's peak resident set (VmHWM). getrusage's ru_maxrss
/// would also count the parent's footprint inherited across fork and exec.
std::int64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
  std::fclose(f);
  if (kb < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kb;
}

Value unit_json(const Unit& u, const std::vector<double>& cpu,
                const std::vector<double>& wall,
                const std::vector<double>& ref) {
  Object o;
  o["digest"] = Value(u.digest);
  o["attempted"] = Value(u.attempted);
  o["failed"] = Value(u.failed);
  o["sim_ms"] = Value(u.sim_ms);
  o["heap_peak_kb"] = Value(u.heap_peak_kb);
  Array c(cpu.begin(), cpu.end());
  Array w(wall.begin(), wall.end());
  o["cpu_ms"] = Value(std::move(c));
  o["wall_ms"] = Value(std::move(w));
  o["ref_ms"] = Value(Array(ref.begin(), ref.end()));
  o["out"] = Value(u.out);
  if (!u.metrics.is_null()) o["metrics"] = u.metrics;
  return Value(std::move(o));
}

Value checks_json(const std::vector<Check>& checks) {
  Array out;
  for (const Check& c : checks) {
    Object o;
    o["name"] = Value(c.name);
    o["ok"] = Value(c.ok);
    o["detail"] = Value(c.detail);
    out.emplace_back(std::move(o));
  }
  return Value(std::move(out));
}

/// Untraced: set-up several times, then full passes over the block — at
/// least two, more while another fits in `seconds` of thread CPU and the
/// wall clock has not run past 1.5x that (the host may deschedule us) — with
/// every repeat's digest checked against the first pass. The reference
/// kernel runs right after every set-up and every unit.
void run_untraced(Workload& w, double seconds, Object& doc) {
  Tracer off(false);
  Array setup_cpu;
  Array setup_wall;
  Array setup_ref;
  // At least seven set-ups, more while they have taken under 0.5 s of CPU
  // with their kernel runs: a set-up of a few ms is noisy on its own.
  for (const double start = cpu_ms();
       setup_cpu.size() < 7 ||
       (setup_cpu.size() < 101 && cpu_ms() - start < 500.0);) {
    const double c0 = cpu_ms();
    const double w0 = wall_ms();
    w.setup(off);
    setup_cpu.emplace_back((cpu_ms() - c0) / 1e3);
    setup_wall.emplace_back((wall_ms() - w0) / 1e3);
    setup_ref.emplace_back(reference_ms());
  }
  const std::size_t n = w.block();
  std::vector<Unit> units(n);
  std::vector<std::vector<double>> cpu(n);
  std::vector<std::vector<double>> wall(n);
  std::vector<std::vector<double>> ref(n);
  std::size_t mismatches = 0;
  std::string first_mismatch;
  const double budget_ms = seconds * 1e3;
  const double c_start = cpu_ms();
  const double w_start = wall_ms();
  std::size_t passes = 0;
  for (double last_pass_ms = 0.0;; ++passes) {
    const double used = cpu_ms() - c_start;
    if (passes >= 2 && (used + last_pass_ms > budget_ms ||
                        wall_ms() - w_start > 1.5 * budget_ms))
      break;
    const double pass_start = cpu_ms();
    w.reset();
    for (std::size_t i = 0; i < n; ++i) {
      Ctx ctx{off, {}, static_cast<std::int64_t>(i)};
      g_heap_peak.store(g_heap_live.load());
      const double c0 = cpu_ms();
      const double w0 = wall_ms();
      w.run(i, ctx);
      cpu[i].push_back(cpu_ms() - c0);
      wall[i].push_back(wall_ms() - w0);
      const double heap_peak_kb = static_cast<double>(g_heap_peak.load()) / 1024.0;
      ref[i].push_back(reference_ms());
      Unit u = w.collect(i);
      u.heap_peak_kb = heap_peak_kb;
      if (passes == 0) {
        units[i] = std::move(u);
      } else if (u.digest != units[i].digest) {
        if (mismatches == 0) first_mismatch = ", first unit " + u.id;
        ++mismatches;
      }
    }
    last_pass_ms = cpu_ms() - pass_start;
  }
  std::vector<Check> checks;
  checks.push_back({"repeat_digest_identical", mismatches == 0,
                    std::to_string(passes) + " passes of " +
                        std::to_string(n) + " units, " +
                        std::to_string(mismatches) + " repeats mismatched" +
                        first_mismatch});
  w.final_checks(checks);
  Array out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(unit_json(units[i], cpu[i], wall[i], ref[i]));
  doc["setup_cpu_s"] = Value(std::move(setup_cpu));
  doc["setup_wall_s"] = Value(std::move(setup_wall));
  doc["setup_ref_ms"] = Value(std::move(setup_ref));
  doc["units"] = Value(std::move(out));
  doc["checks"] = checks_json(checks);
}

/// Traced: each unit of the traced block untraced, then traced with an
/// obs::Registry attached (its report must digest identically), then its
/// drive leg. Spans and counts go to the document.
void run_traced(Workload& w, Object& doc) {
  Tracer tracer(true);
  tracer.span("bench.setup", -1, [&] { w.setup(tracer); });
  const std::size_t n = w.traced_block();
  Tracer off(false);
  std::vector<Unit> plain(n);
  Array untraced_cpu;
  Array untraced_ref;
  w.reset();
  for (std::size_t i = 0; i < n; ++i) {
    Ctx ctx{off, {}, static_cast<std::int64_t>(i)};
    const double c0 = cpu_ms();
    w.run(i, ctx);
    untraced_cpu.emplace_back(cpu_ms() - c0);
    untraced_ref.emplace_back(reference_ms());
    plain[i] = w.collect(i);
  }
  obs::Registry registry;
  std::vector<Check> checks;
  std::size_t mismatches = 0;
  Array units;
  w.reset();
  for (std::size_t i = 0; i < n; ++i) {
    const auto unit = static_cast<std::int64_t>(i);
    Ctx ctx{tracer, {&registry, nullptr}, unit};
    const double c0 = cpu_ms();
    tracer.span("bench.unit", unit, [&] { w.run(i, ctx); });
    const double traced_ms = cpu_ms() - c0;
    const double ref_ms = reference_ms();  // outside every span
    Unit u = w.collect(i);
    if (u.digest != plain[i].digest) ++mismatches;
    tracer.span("bench.drive", unit, [&] { w.drive(i, ctx, u.out); });
    units.push_back(unit_json(u, {traced_ms}, {}, {ref_ms}));
  }
  checks.push_back({"traced_report_identical", mismatches == 0,
                    std::to_string(mismatches) + " of " + std::to_string(n) +
                        " traced reports differ from untraced"});
  w.final_checks(checks);
  Object traced;
  traced["untraced_cpu_ms"] = Value(std::move(untraced_cpu));
  traced["untraced_ref_ms"] = Value(std::move(untraced_ref));
  traced["registry"] = registry.to_json();
  traced["spans"] = tracer.to_json();
  doc["units"] = Value(std::move(units));
  doc["traced"] = Value(std::move(traced));
  doc["checks"] = checks_json(checks);
}

int main_impl(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::stoull(value);
    else if (flag == "--seconds") seconds = std::stod(value);
    else if (flag == "--trace") trace = std::stoi(value);
    else throw std::invalid_argument("unknown flag " + flag);
  }
  dif::util::Logger::instance().set_level(dif::util::LogLevel::kOff);
  const std::unique_ptr<Workload> w = make_workload(workload, seed);

  Object doc;
  doc["schema"] = Value("perfbench-raw-v1");
  doc["workload"] = Value(workload);
  doc["seed"] = Value(seed);
  doc["trace"] = Value(trace);
  doc["config"] = Value(w->config());
  Object machine;
  machine["calibration_cpu_ms"] = Value(calibration_ms());
  Array reference;
  for (int r = 0; r < 5; ++r) reference.emplace_back(reference_ms());
  machine["reference_cpu_ms"] = Value(std::move(reference));
  doc["machine"] = Value(std::move(machine));
  if (trace != 0) run_traced(*w, doc);
  else run_untraced(*w, seconds, doc);
  doc["peak_rss_kb"] = Value(peak_rss_kb());
  const std::string text = Value(std::move(doc)).dump();
  std::fwrite(text.data(), 1, text.size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}
