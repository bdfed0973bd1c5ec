// Extensibility walkthrough (paper Sections 3.1 and 4.3): adding a brand
// new concern — security — without touching the framework.
//
//   $ ./secure_deployment
//
// The paper's Model admits "an arbitrary set of parameters" per host, link,
// or interaction, and objectives are pluggable. Here link security levels
// and per-interaction clearance requirements live in PropertyMaps, the
// SecurityObjective scores them, and a WeightedObjective trades security
// against availability — the multi-objective situation the analyzer's veto
// machinery exists for.
#include <cstdio>

#include "algo/registry.h"
#include "desi/algo_result_data.h"
#include "desi/algorithm_container.h"
#include "desi/table_view.h"

using namespace dif;

int main() {
  desi::SystemData system;
  model::DeploymentModel& m = system.model();

  // Three sites: a hardened data center, an office, and a field laptop.
  const model::HostId dc = m.add_host({.name = "datacenter",
                                       .memory_capacity = 512});
  const model::HostId office = m.add_host({.name = "office",
                                           .memory_capacity = 128});
  const model::HostId field = m.add_host({.name = "field",
                                          .memory_capacity = 64});

  // Links carry an extensible "security" property (0 = open wifi,
  // 3 = VPN, 5 = dedicated encrypted line).
  const auto secured = [](double level) {
    model::PropertyMap properties;
    properties.set("security", level);
    return properties;
  };
  m.set_physical_link(dc, office,
                      {.reliability = 0.97, .bandwidth = 900, .delay_ms = 4},
                      secured(5.0));
  m.set_physical_link(office, field,
                      {.reliability = 0.80, .bandwidth = 200, .delay_ms = 25},
                      secured(3.0));
  // Open uplink: fast but exposed.
  m.set_physical_link(dc, field,
                      {.reliability = 0.85, .bandwidth = 300, .delay_ms = 30},
                      secured(0.0));

  // Components; the vault and auditor handle classified data.
  const model::ComponentId vault =
      m.add_component({.name = "vault", .memory_size = 64});
  const model::ComponentId auditor =
      m.add_component({.name = "auditor", .memory_size = 32});
  const model::ComponentId dashboard =
      m.add_component({.name = "dashboard", .memory_size = 16});
  const model::ComponentId agent =
      m.add_component({.name = "field-agent", .memory_size = 8});

  // Interactions carry "required_security" clearance levels.
  model::LogicalLink classified{.frequency = 6.0, .avg_event_size = 2.0};
  classified.properties.set("required_security", 4.0);
  m.set_logical_link(vault, auditor, classified);

  model::LogicalLink sensitive{.frequency = 4.0, .avg_event_size = 1.0};
  sensitive.properties.set("required_security", 2.0);
  m.set_logical_link(auditor, dashboard, sensitive);

  m.set_logical_link(dashboard, agent,
                     {.frequency = 8.0, .avg_event_size = 0.3});  // public

  system.constraints().pin(agent, field);   // the agent is in the field
  system.constraints().pin(vault, dc);      // the vault never leaves the DC

  system.sync_deployment_size();
  system.set_deployment(model::Deployment(
      std::vector<model::HostId>{dc, field, field, field}));

  const model::SecurityObjective security;
  const model::AvailabilityObjective availability;
  std::printf("initial: security %.3f, availability %.3f\n\n",
              security.evaluate(m, system.deployment()),
              availability.evaluate(m, system.deployment()));

  desi::AlgoResultData results;
  desi::AlgorithmContainer container(system, results);
  // Optimize security alone, availability alone, and a 50/50 blend.
  container.invoke("exact", security);
  container.invoke("exact", availability);
  auto security_ptr = std::make_shared<model::SecurityObjective>();
  auto availability_ptr = std::make_shared<model::AvailabilityObjective>();
  const model::WeightedObjective blend(
      {{security_ptr, 1.0}, {availability_ptr, 1.0}});
  container.invoke("exact", blend);

  std::printf("%s\n", desi::TableView::render_results(results).c_str());
  for (const desi::ResultEntry& entry : results.entries()) {
    std::printf("%s-optimal: security %.3f availability %.3f\n",
                entry.objective.c_str(),
                security.evaluate(m, entry.result.deployment),
                availability.evaluate(m, entry.result.deployment));
  }
  std::printf("\nThe blend keeps classified traffic on cleared links while\n"
              "placing the public dashboard for availability — a concern the\n"
              "framework never heard of until this file defined it.\n");
  return 0;
}
