#include "model/objective.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dif::model {

double Objective::score(const DeploymentModel& model,
                        const Deployment& d) const {
  // Default for maximize objectives whose raw value already lives in [0, 1]
  // (availability, security, weighted). Minimize objectives override.
  return std::clamp(evaluate(model, d), 0.0, 1.0);
}

double Objective::worst() const {
  return direction() == Direction::kMaximize
             ? -std::numeric_limits<double>::infinity()
             : std::numeric_limits<double>::infinity();
}

double AvailabilityObjective::evaluate(const DeploymentModel& model,
                                       const Deployment& d) const {
  double weighted = 0.0;
  double total = 0.0;
  for (const Interaction& ix : model.interactions()) {
    total += ix.frequency;
    const HostId ha = d.host_of(ix.a), hb = d.host_of(ix.b);
    if (ha == kNoHost || hb == kNoHost) continue;  // unassigned: unavailable
    weighted += ix.frequency * model.physical_link(ha, hb).reliability;
  }
  return total > 0.0 ? weighted / total : 1.0;
}

double LatencyObjective::evaluate(const DeploymentModel& model,
                                  const Deployment& d) const {
  double latency = 0.0;
  for (const Interaction& ix : model.interactions()) {
    const HostId ha = d.host_of(ix.a), hb = d.host_of(ix.b);
    if (ha == kNoHost || hb == kNoHost) {
      latency += ix.frequency * penalty_ms_;
      continue;
    }
    if (ha == hb) continue;
    const PhysicalLink link = model.physical_link(ha, hb);
    if (link.bandwidth <= 0.0) {
      latency += ix.frequency * penalty_ms_;
    } else {
      latency += ix.frequency *
                 (link.delay_ms + 1000.0 * ix.avg_event_size / link.bandwidth);
    }
  }
  return latency;
}

double LatencyObjective::score(const DeploymentModel& model,
                               const Deployment& d) const {
  return 1.0 / (1.0 + evaluate(model, d) / scale_);
}

double CommunicationCostObjective::evaluate(const DeploymentModel& model,
                                            const Deployment& d) const {
  double cost = 0.0;
  for (const Interaction& ix : model.interactions()) {
    const HostId ha = d.host_of(ix.a), hb = d.host_of(ix.b);
    if (ha == kNoHost || hb == kNoHost || ha != hb)
      cost += ix.frequency * ix.avg_event_size;
  }
  return cost;
}

double CommunicationCostObjective::score(const DeploymentModel& model,
                                         const Deployment& d) const {
  return 1.0 / (1.0 + evaluate(model, d) / scale_);
}

double SecurityObjective::evaluate(const DeploymentModel& model,
                                   const Deployment& d) const {
  double satisfied = 0.0;
  double total = 0.0;
  for (const Interaction& ix : model.interactions()) {
    const double required =
        model.logical_link(ix.a, ix.b).properties.get_or("required_security",
                                                         0.0);
    total += ix.frequency;
    const HostId ha = d.host_of(ix.a), hb = d.host_of(ix.b);
    if (ha == kNoHost || hb == kNoHost) continue;
    const double provided =
        ha == hb ? std::numeric_limits<double>::infinity()
                 : model.link_properties(ha, hb).get_or("security", 0.0);
    if (provided >= required) satisfied += ix.frequency;
  }
  return total > 0.0 ? satisfied / total : 1.0;
}

WeightedObjective::WeightedObjective(std::vector<Term> terms)
    : terms_(std::move(terms)) {
  if (terms_.empty())
    throw std::invalid_argument("WeightedObjective: no terms");
  total_weight_ = 0.0;
  name_ = "weighted(";
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    const Term& term = terms_[i];
    if (!term.objective)
      throw std::invalid_argument("WeightedObjective: null objective");
    if (term.weight < 0.0)
      throw std::invalid_argument("WeightedObjective: negative weight");
    total_weight_ += term.weight;
    if (i) name_ += '+';
    name_ += term.objective->name();
  }
  name_ += ')';
  if (total_weight_ <= 0.0)
    throw std::invalid_argument("WeightedObjective: zero total weight");
}

double WeightedObjective::evaluate(const DeploymentModel& model,
                                   const Deployment& d) const {
  double sum = 0.0;
  for (const Term& term : terms_)
    sum += term.weight * term.objective->score(model, d);
  return sum / total_weight_;
}

}  // namespace dif::model
