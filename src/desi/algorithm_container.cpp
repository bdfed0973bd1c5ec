#include "desi/algorithm_container.h"

#include "check/preflight.h"

namespace dif::desi {

AlgorithmContainer::AlgorithmContainer(SystemData& system,
                                       AlgoResultData& results)
    : AlgorithmContainer(system, results,
                         algo::AlgorithmRegistry::with_defaults()) {}

AlgorithmContainer::AlgorithmContainer(SystemData& system,
                                       AlgoResultData& results,
                                       algo::AlgorithmRegistry registry)
    : system_(system), results_(results), registry_(std::move(registry)) {}

const ResultEntry& AlgorithmContainer::invoke(const std::string& algorithm,
                                              const model::Objective& objective,
                                              algo::AlgoOptions options) {
  // Pre-flight: reject statically-broken models with diagnostics instead of
  // letting the algorithm search and report a bare "infeasible".
  check::preflight(system_.model(), system_.constraints());
  const model::ConstraintChecker checker(system_.model(),
                                         system_.constraints());
  if (!options.initial && system_.deployment().complete())
    options.initial = system_.deployment();

  const std::unique_ptr<algo::Algorithm> algo_instance =
      registry_.create(algorithm);
  algo::AlgoResult result =
      algo_instance->run(system_.model(), objective, checker, options);

  ResultEntry entry;
  entry.estimated_redeploy_ms = estimate_redeploy_ms(result);
  entry.result = std::move(result);
  entry.objective = std::string(objective.name());
  results_.add(std::move(entry));
  return results_.entries().back();
}

std::size_t AlgorithmContainer::invoke_all(const model::Objective& objective,
                                           std::uint64_t seed,
                                           std::size_t exact_limit) {
  std::size_t ran = 0;
  for (const std::string& name : registry_.names()) {
    if (name == "mincut" && system_.model().host_count() != 2) continue;
    if ((name == "exact" || name == "exact-unpruned" || name == "bip-i5") &&
        system_.model().component_count() > exact_limit)
      continue;
    algo::AlgoOptions options;
    options.seed = seed;
    invoke(name, objective, options);
    ++ran;
  }
  return ran;
}

double AlgorithmContainer::estimate_redeploy_ms(
    const algo::AlgoResult& result) const {
  if (!result.feasible || !system_.deployment().complete()) return 0.0;
  if (result.deployment.size() != system_.deployment().size()) return 0.0;
  const model::DeploymentModel& m = system_.model();
  double total = 0.0;
  for (const model::Deployment::Migration& move :
       model::Deployment::diff(system_.deployment(), result.deployment)) {
    const double size_kb = m.component(move.component).memory_size;
    if (m.connected(move.from, move.to)) {
      const model::PhysicalLink link = m.physical_link(move.from, move.to);
      total += link.delay_ms + 1000.0 * size_kb / link.bandwidth;
    } else {
      // Mediated two-hop transfer through the deployer; estimate with the
      // slowest link the source and target have (pessimistic but bounded).
      double best_bw = 0.0;
      for (std::size_t h = 0; h < m.host_count(); ++h) {
        const auto hub = static_cast<model::HostId>(h);
        if (m.connected(move.from, hub) && m.connected(hub, move.to)) {
          const double bw =
              std::min(m.physical_link(move.from, hub).bandwidth,
                       m.physical_link(hub, move.to).bandwidth);
          best_bw = std::max(best_bw, bw);
        }
      }
      total += best_bw > 0.0 ? 2.0 * 1000.0 * size_kb / best_bw
                             : 10'000.0;  // unreachable: charge a timeout
    }
  }
  return total;
}

}  // namespace dif::desi
