#include "check/resilience.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "model/deployment.h"
#include "model/deployment_model.h"

namespace dif::check {

namespace {

using model::ComponentId;
using model::DeploymentModel;
using model::HostId;

/// Joins the first `cap` of `count` names (name(i) for i < count), appending
/// "+N more" when truncated.
template <typename Name>
std::string join_names(std::size_t count, std::size_t cap, const Name& name) {
  std::string out;
  const std::size_t shown = std::min(count, cap);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i > 0) out += ", ";
    out += name(i);
  }
  if (count > shown) out += ", +" + std::to_string(count - shown) + " more";
  return out;
}

std::string join_names(const std::vector<std::string>& names,
                       std::size_t cap) {
  return join_names(names.size(), cap,
                    [&](std::size_t i) -> const std::string& {
                      return names[i];
                    });
}

/// Diagnostic sink with a hard cap; overflow collapses into one summary.
/// Once full() a finding need not be built at all: skip() counts it.
class Emitter {
 public:
  Emitter(CheckReport& report, std::size_t cap) : report_(report), cap_(cap) {}

  [[nodiscard]] bool full() const {
    return report_.diagnostics().size() >= cap_;
  }

  void add(Diagnostic d) {
    if (full())
      skip();
    else
      report_.add(std::move(d));
  }

  void skip() { ++suppressed_; }

  void flush() {
    if (suppressed_ == 0) return;
    report_.add({Rule::kResilienceSpof,
                 Severity::kWarning,
                 {"model"},
                 std::to_string(suppressed_) +
                     " further resilience finding(s) suppressed",
                 "raise ResilienceOptions::max_diagnostics to see them all"});
  }

 private:
  CheckReport& report_;
  std::size_t cap_;
  std::size_t suppressed_ = 0;
};

/// Articulation points of the host graph: the hosts whose removal splits
/// their connected component. One iterative Tarjan low-link pass, O(k + E).
std::vector<bool> articulation_points(
    const std::vector<std::vector<HostId>>& adj) {
  const std::size_t k = adj.size();
  std::vector<bool> cut(k, false);
  std::vector<std::size_t> disc(k, 0);  // discovery time; 0 == unvisited
  std::vector<std::size_t> low(k, 0);
  struct Frame {
    HostId host;
    std::size_t next;      // next neighbour index to explore
    std::size_t children;  // DFS-tree children (decides the root's status)
  };
  std::vector<Frame> stack;
  std::size_t time = 0;
  for (std::size_t root = 0; root < k; ++root) {
    if (disc[root] != 0) continue;
    disc[root] = low[root] = ++time;
    stack.push_back({static_cast<HostId>(root), 0, 0});
    while (!stack.empty()) {
      Frame& top = stack.back();
      const HostId h = top.host;
      if (top.next < adj[h].size()) {
        const HostId other = adj[h][top.next++];
        if (disc[other] == 0) {
          ++top.children;
          disc[other] = low[other] = ++time;
          stack.push_back({other, 0, 0});
        } else {
          // Back edge (or the tree edge to the parent, whose disc never
          // lowers low[h] below what the parent test needs).
          low[h] = std::min(low[h], disc[other]);
        }
        continue;
      }
      const std::size_t children = top.children;
      stack.pop_back();
      if (stack.empty()) {
        cut[h] = children > 1;  // the root splits iff it has two subtrees
        continue;
      }
      const HostId parent = stack.back().host;
      low[parent] = std::min(low[parent], low[h]);
      if (stack.size() > 1 && low[h] >= disc[parent]) cut[parent] = true;
    }
  }
  return cut;
}

/// Connected-component labels of the host graph with `failed` hosts
/// removed. Failed hosts keep label k (never matched against).
std::vector<std::size_t> surviving_labels(
    const std::vector<std::vector<HostId>>& adj,
    const std::vector<bool>& failed) {
  const std::size_t k = adj.size();
  std::vector<std::size_t> label(k, k);
  std::size_t next = 0;
  std::vector<HostId> stack;
  for (std::size_t root = 0; root < k; ++root) {
    if (failed[root] || label[root] != k) continue;
    label[root] = next;
    stack.push_back(static_cast<HostId>(root));
    while (!stack.empty()) {
      const HostId h = stack.back();
      stack.pop_back();
      for (const HostId other : adj[h]) {
        if (failed[other] || label[other] != k) continue;
        label[other] = next;
        stack.push_back(other);
      }
    }
    ++next;
  }
  return label;
}

/// Minimum vertex cut between two hosts via unit-capacity max-flow over the
/// split graph: host i becomes in-node 2i and out-node 2i+1 joined by a
/// capacity-1 internal edge; each physical link contributes two directed
/// unbounded edges out(a)→in(b), out(b)→in(a). The cut members are the
/// hosts whose internal edge is saturated across the final residual
/// reachability frontier. The split graph is built once; each query undoes
/// its augmentations afterwards, so every query starts from the initial
/// capacities with the same edge order (and so finds the same paths) as a
/// freshly built graph would.
class VertexCut {
 public:
  explicit VertexCut(const std::vector<std::vector<HostId>>& adj)
      : adj_(adj), graph_(2 * adj.size()) {
    const std::size_t k = adj_.size();
    for (std::size_t i = 0; i < k; ++i)
      add_edge(in(i), out(i), 1);
    for (std::size_t a = 0; a < k; ++a)
      for (const HostId b : adj_[a]) add_edge(out(a), in(b), kUnbounded);
    parent_.resize(graph_.size());
    seen_.assign(graph_.size(), 0);
  }

  /// The minimum host set (excluding the endpoints) whose removal
  /// disconnects s from t, when its size is ≤ limit; nullopt when the cut
  /// is larger (or infinite: a direct s—t link exists).
  [[nodiscard]] std::optional<std::vector<HostId>> cut(HostId s, HostId t,
                                                       std::size_t limit) {
    if (std::binary_search(adj_[s].begin(), adj_[s].end(), t))
      return std::nullopt;  // uncuttable direct link
    // Each common neighbour is its own two-hop path, disjoint from the
    // others: limit + 1 of them already prove the cut is too large, which
    // is what limit + 1 augmentations would conclude.
    if (common_neighbours(s, t, limit + 1) > limit) return std::nullopt;

    std::size_t flow = 0;
    while (flow <= limit && augment(out(s), in(t))) ++flow;
    std::optional<std::vector<HostId>> members;
    if (flow <= limit) {
      mark_residual_reachable(out(s));
      members.emplace();
      for (std::size_t i = 0; i < adj_.size(); ++i) {
        if (i == s || i == t) continue;
        if (seen_[static_cast<std::size_t>(in(i))] == stamp_ &&
            seen_[static_cast<std::size_t>(out(i))] != stamp_)
          members->push_back(static_cast<HostId>(i));
      }
    }
    for (const auto& [u, e] : touched_) {
      Edge& edge = graph_[static_cast<std::size_t>(u)][e];
      edge.cap = edge.initial;
    }
    touched_.clear();
    return members;
  }

 private:
  static constexpr int kUnbounded = 1 << 28;

  struct Edge {
    int to;
    int cap;
    int rev;
    int initial;
  };

  static int in(std::size_t host) { return static_cast<int>(2 * host); }
  static int out(std::size_t host) { return static_cast<int>(2 * host + 1); }

  void add_edge(int u, int v, int cap) {
    graph_[static_cast<std::size_t>(u)].push_back(
        {v, cap, static_cast<int>(graph_[static_cast<std::size_t>(v)].size()),
         cap});
    graph_[static_cast<std::size_t>(v)].push_back(
        {u, 0,
         static_cast<int>(graph_[static_cast<std::size_t>(u)].size()) - 1, 0});
  }

  /// Size of adj[s] ∩ adj[t], counting no further than `enough`.
  [[nodiscard]] std::size_t common_neighbours(HostId s, HostId t,
                                              std::size_t enough) const {
    std::size_t common = 0;
    auto x = adj_[s].begin(), y = adj_[t].begin();
    while (x != adj_[s].end() && y != adj_[t].end() && common < enough) {
      if (*x < *y) {
        ++x;
      } else if (*y < *x) {
        ++y;
      } else {
        ++common;
        ++x;
        ++y;
      }
    }
    return common;
  }

  /// Starts a fresh visit: seen_[node] == stamp_ marks visited nodes.
  void next_visit() {
    if (++stamp_ == 0) {  // wrapped: clear the stale marks once
      std::fill(seen_.begin(), seen_.end(), 0);
      stamp_ = 1;
    }
  }

  /// One BFS augmentation; returns false when t is unreachable. The search
  /// stops when t is discovered: its parent chain is fixed from then on.
  bool augment(int s, int t) {
    next_visit();
    queue_.assign(1, s);
    seen_[static_cast<std::size_t>(s)] = stamp_;
    bool found = false;
    for (std::size_t head = 0; head < queue_.size() && !found; ++head) {
      const int u = queue_[head];
      const auto& edges = graph_[static_cast<std::size_t>(u)];
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const auto to = static_cast<std::size_t>(edges[e].to);
        if (edges[e].cap <= 0 || seen_[to] == stamp_) continue;
        seen_[to] = stamp_;
        parent_[to] = {u, e};
        if (edges[e].to == t) {
          found = true;
          break;
        }
        queue_.push_back(edges[e].to);
      }
    }
    if (!found) return false;

    int bottleneck = kUnbounded;
    for (int v = t; v != s;) {
      const auto [u, e] = parent_[static_cast<std::size_t>(v)];
      bottleneck =
          std::min(bottleneck, graph_[static_cast<std::size_t>(u)][e].cap);
      v = u;
    }
    for (int v = t; v != s;) {
      const auto [u, e] = parent_[static_cast<std::size_t>(v)];
      Edge& fwd = graph_[static_cast<std::size_t>(u)][e];
      fwd.cap -= bottleneck;
      graph_[static_cast<std::size_t>(fwd.to)]
            [static_cast<std::size_t>(fwd.rev)]
                .cap += bottleneck;
      touched_.emplace_back(u, e);
      touched_.emplace_back(fwd.to, static_cast<std::size_t>(fwd.rev));
      v = u;
    }
    return true;
  }

  /// Marks (seen_ == stamp_) every node reachable from s in the residual
  /// graph.
  void mark_residual_reachable(int s) {
    next_visit();
    queue_.assign(1, s);
    seen_[static_cast<std::size_t>(s)] = stamp_;
    while (!queue_.empty()) {
      const int u = queue_.back();
      queue_.pop_back();
      for (const Edge& e : graph_[static_cast<std::size_t>(u)]) {
        const auto to = static_cast<std::size_t>(e.to);
        if (e.cap <= 0 || seen_[to] == stamp_) continue;
        seen_[to] = stamp_;
        queue_.push_back(e.to);
      }
    }
  }

  const std::vector<std::vector<HostId>>& adj_;
  std::vector<std::vector<Edge>> graph_;
  /// Per-query scratch, reused across queries.
  std::vector<std::pair<int, std::size_t>> parent_;  // node, edge index
  std::vector<std::pair<int, std::size_t>> touched_;
  std::vector<std::uint32_t> seen_;
  std::uint32_t stamp_ = 0;
  std::vector<int> queue_;
};

}  // namespace

CheckReport ResilienceProver::prove(const DeploymentModel& m,
                                    const model::Deployment& d) const {
  CheckReport report;
  Emitter emit(report, options_.max_diagnostics);
  const std::size_t n = m.component_count();
  const std::size_t k = m.host_count();
  const std::size_t covered = std::min(d.size(), n);

  // Host adjacency (links with bandwidth > 0) and the resolved placement.
  // Unassigned or out-of-range components are the PlacementAuditor's
  // findings; here they simply carry no service to lose.
  const std::vector<std::vector<HostId>> adj = m.host_adjacency();

  std::vector<bool> placed(covered, false);
  std::vector<HostId> where(covered, 0);
  std::vector<std::vector<ComponentId>> residents(k);
  for (std::size_t c = 0; c < covered; ++c) {
    const auto cid = static_cast<ComponentId>(c);
    if (!d.is_assigned(cid) || d.host_of(cid) >= k) continue;
    placed[c] = true;
    where[c] = d.host_of(cid);
    residents[where[c]].push_back(cid);
  }

  // Live remote interactions: both endpoints placed, on distinct hosts.
  struct Flow {
    HostId a;
    HostId b;
    ComponentId from;
    ComponentId to;
  };
  std::vector<Flow> flows;
  for (const model::Interaction& ix : m.interactions()) {
    if (ix.a >= covered || ix.b >= covered) continue;
    if (!placed[ix.a] || !placed[ix.b]) continue;
    if (where[ix.a] == where[ix.b]) continue;
    flows.push_back({where[ix.a], where[ix.b], ix.a, ix.b});
  }
  const auto flow_name = [&](const Flow& f) {
    return m.component(f.from).name + "--" + m.component(f.to).name;
  };

  // k = 1 sweep: every single host's failure, with partition analysis.
  // Removing a host that is not an articulation point leaves the other
  // hosts' partition as it was, so it severs exactly the flows the intact
  // graph already cannot carry (less its own); only articulation points
  // need a relabel. Past the diagnostic cap a finding is only counted.
  if (options_.max_failures >= 1) {
    const std::vector<bool> articulation = articulation_points(adj);
    std::vector<bool> failed(k, false);
    const std::vector<std::size_t> base = surviving_labels(adj, failed);
    std::vector<std::size_t> base_severed;  // indices into flows
    for (std::size_t i = 0; i < flows.size(); ++i)
      if (base[flows[i].a] != base[flows[i].b]) base_severed.push_back(i);

    std::vector<std::size_t> severed;
    for (std::size_t h = 0; h < k; ++h) {
      if (emit.full() && !residents[h].empty()) {
        emit.skip();
        continue;
      }
      severed.clear();
      const auto touches = [h](const Flow& f) { return f.a == h || f.b == h; };
      if (articulation[h]) {
        failed[h] = true;
        const std::vector<std::size_t> label = surviving_labels(adj, failed);
        failed[h] = false;
        for (std::size_t i = 0; i < flows.size(); ++i)
          if (!touches(flows[i]) && label[flows[i].a] != label[flows[i].b])
            severed.push_back(i);  // endpoint loss is counted below
      } else {
        for (const std::size_t i : base_severed)
          if (!touches(flows[i])) severed.push_back(i);
      }
      if (residents[h].empty() && severed.empty()) continue;
      if (emit.full()) {
        emit.skip();
        continue;
      }

      const std::vector<ComponentId>& lost = residents[h];
      std::string message;
      if (!lost.empty())
        message += "its failure takes down " + std::to_string(lost.size()) +
                   " component(s): " +
                   join_names(lost.size(), 5, [&](std::size_t i) {
                     return m.component(lost[i]).name;
                   });
      if (!severed.empty()) {
        if (!message.empty()) message += "; ";
        message += "it is an articulation point severing " +
                   std::to_string(severed.size()) +
                   " surviving interaction(s): " +
                   join_names(severed.size(), 5, [&](std::size_t i) {
                     return flow_name(flows[severed[i]]);
                   });
      }
      emit.add({Rule::kResilienceSpof,
                Severity::kWarning,
                {"host " + m.host(static_cast<HostId>(h)).name},
                std::move(message),
                lost.empty()
                    ? "add a redundant physical path around this host"
                    : "replicate or re-place the residents off this host",
                {m.host(static_cast<HostId>(h)).name}});
    }
  }

  // k ≥ 2: a minimum vertex cut per remote interaction, grouped by cut set.
  if (options_.max_failures >= 2) {
    VertexCut cutter(adj);
    // Flows between the same ordered host pair share one cut. A cut's
    // members may depend on the orientation (the frontier nearest the
    // source), but whether a cut of two or more hosts exists does not, so
    // the reverse pair's "none" answers this one too.
    std::map<std::pair<HostId, HostId>, std::optional<std::vector<HostId>>>
        cuts;
    const auto has_cut = [](const std::optional<std::vector<HostId>>& c) {
      return c && c->size() >= 2;  // size-1 cuts are the sweep's findings
    };
    std::map<std::vector<HostId>, std::vector<std::string>> by_cut;
    for (const Flow& f : flows) {
      auto it = cuts.find({f.a, f.b});
      if (it == cuts.end()) {
        const auto reverse = cuts.find({f.b, f.a});
        if (reverse != cuts.end() && !has_cut(reverse->second)) continue;
        it = cuts.emplace(std::pair(f.a, f.b),
                          cutter.cut(f.a, f.b, options_.max_failures))
                 .first;
      }
      if (has_cut(it->second)) by_cut[*it->second].push_back(flow_name(f));
    }
    for (const auto& [members, names] : by_cut) {
      std::vector<std::string> witness;
      witness.reserve(members.size());
      for (const HostId h : members) witness.push_back(m.host(h).name);
      emit.add({Rule::kResilienceSpof,
                Severity::kWarning,
                {"hosts {" + join_names(witness, 8) + "}"},
                "the simultaneous failure of these " +
                    std::to_string(members.size()) +
                    " hosts (a minimum vertex cut) severs " +
                    std::to_string(names.size()) + " interaction(s): " +
                    join_names(names, 5),
                "add a physical path avoiding this host set",
                std::move(witness)});
    }
  }

  // Whole-region failures.
  const std::size_t regions = options_.regions ? m.region_count() : 1;
  if (regions >= 2) {
    for (std::size_t r = 0; r < regions; ++r) {
      const std::vector<HostId> region_hosts = m.hosts_in_region(r);
      if (region_hosts.empty()) continue;
      std::vector<bool> failed(k, false);
      std::vector<std::string> witness;
      std::vector<std::string> lost;
      for (const HostId h : region_hosts) {
        failed[h] = true;
        witness.push_back(m.host(h).name);
        for (const ComponentId c : residents[h])
          lost.push_back(m.component(c).name);
      }
      std::vector<std::string> severed;
      const std::vector<std::size_t> label = surviving_labels(adj, failed);
      for (const Flow& f : flows) {
        if (failed[f.a] || failed[f.b]) continue;
        if (label[f.a] != label[f.b]) severed.push_back(flow_name(f));
      }
      if (lost.empty() && severed.empty()) continue;

      std::string message =
          "region " + std::to_string(r) + " going down (" +
          std::to_string(region_hosts.size()) + " host(s))";
      if (!lost.empty())
        message += " takes down " + std::to_string(lost.size()) +
                   " component(s): " + join_names(lost, 5);
      if (!severed.empty())
        message += std::string(lost.empty() ? " severs " : " and severs ") +
                   std::to_string(severed.size()) +
                   " surviving interaction(s): " + join_names(severed, 5);
      emit.add({Rule::kResilienceRegion,
                Severity::kWarning,
                {"region " + std::to_string(r)},
                std::move(message),
                "spread the components (and physical paths) across regions",
                std::move(witness)});
    }
  }

  emit.flush();
  return report;
}

}  // namespace dif::check
