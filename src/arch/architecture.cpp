#include "arch/architecture.hpp"

#include "util/contracts.hpp"

#include <deque>

namespace socbuf::arch {

BusId Architecture::add_bus(std::string name, double service_rate) {
    SOCBUF_REQUIRE_MSG(service_rate > 0.0, "bus service rate must be > 0");
    if (name.empty()) name = "bus" + std::to_string(buses_.size());
    buses_.push_back(Bus{std::move(name), service_rate});
    return buses_.size() - 1;
}

ProcessorId Architecture::add_processor(std::string name, BusId bus) {
    SOCBUF_REQUIRE_MSG(bus < buses_.size(), "processor on unknown bus");
    if (name.empty()) name = "p" + std::to_string(processors_.size() + 1);
    processors_.push_back(Processor{std::move(name), bus});
    return processors_.size() - 1;
}

BridgeId Architecture::add_bridge(std::string name, BusId bus_a, BusId bus_b) {
    SOCBUF_REQUIRE_MSG(bus_a < buses_.size() && bus_b < buses_.size(),
                       "bridge references unknown bus");
    SOCBUF_REQUIRE_MSG(bus_a != bus_b, "bridge must join distinct buses");
    if (name.empty()) name = "b" + std::to_string(bridges_.size() + 1);
    bridges_.push_back(Bridge{std::move(name), bus_a, bus_b});
    return bridges_.size() - 1;
}

const Bus& Architecture::bus(BusId id) const {
    SOCBUF_REQUIRE_MSG(id < buses_.size(), "unknown bus");
    return buses_[id];
}

const Processor& Architecture::processor(ProcessorId id) const {
    SOCBUF_REQUIRE_MSG(id < processors_.size(), "unknown processor");
    return processors_[id];
}

const Bridge& Architecture::bridge(BridgeId id) const {
    SOCBUF_REQUIRE_MSG(id < bridges_.size(), "unknown bridge");
    return bridges_[id];
}

std::vector<BridgeId> Architecture::bridges_of_bus(BusId bus) const {
    SOCBUF_REQUIRE_MSG(bus < buses_.size(), "unknown bus");
    std::vector<BridgeId> out;
    for (BridgeId b = 0; b < bridges_.size(); ++b)
        if (bridges_[b].bus_a == bus || bridges_[b].bus_b == bus)
            out.push_back(b);
    return out;
}

BusId Architecture::bridge_peer(BridgeId bridge_id, BusId bus) const {
    const Bridge& b = bridge(bridge_id);
    SOCBUF_REQUIRE_MSG(b.bus_a == bus || b.bus_b == bus,
                       "bus is not an endpoint of the bridge");
    return b.bus_a == bus ? b.bus_b : b.bus_a;
}

std::vector<BridgeId> Architecture::route(BusId from, BusId to) const {
    SOCBUF_REQUIRE_MSG(from < buses_.size() && to < buses_.size(),
                       "route endpoints unknown");
    if (from == to) return {};
    // BFS over the bus graph, remembering the bridge used to reach each bus.
    constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
    std::vector<std::size_t> via_bridge(buses_.size(), kUnvisited);
    std::vector<BusId> via_bus(buses_.size(), 0);
    std::deque<BusId> frontier{from};
    std::vector<bool> seen(buses_.size(), false);
    seen[from] = true;
    while (!frontier.empty()) {
        const BusId current = frontier.front();
        frontier.pop_front();
        if (current == to) break;
        for (BridgeId br : bridges_of_bus(current)) {
            const BusId next = bridge_peer(br, current);
            if (seen[next]) continue;
            seen[next] = true;
            via_bridge[next] = br;
            via_bus[next] = current;
            frontier.push_back(next);
        }
    }
    if (!seen[to])
        throw util::ModelError("no bridge path between bus " +
                               buses_[from].name + " and bus " +
                               buses_[to].name);
    std::vector<BridgeId> path;
    for (BusId cursor = to; cursor != from; cursor = via_bus[cursor])
        path.push_back(via_bridge[cursor]);
    return {path.rbegin(), path.rend()};
}

void Architecture::validate() const {
    if (buses_.empty()) throw util::ModelError("architecture has no buses");
    if (processors_.empty())
        throw util::ModelError("architecture has no processors");
    for (const auto& p : processors_)
        if (p.bus >= buses_.size())
            throw util::ModelError("processor " + p.name +
                                   " is attached to an unknown bus");
    for (const auto& b : bridges_) {
        if (b.bus_a >= buses_.size() || b.bus_b >= buses_.size())
            throw util::ModelError("bridge " + b.name +
                                   " references an unknown bus");
        if (b.bus_a == b.bus_b)
            throw util::ModelError("bridge " + b.name +
                                   " joins a bus to itself");
    }
    for (const auto& b : buses_)
        if (b.service_rate <= 0.0)
            throw util::ModelError("bus " + b.name +
                                   " has a non-positive service rate");
}

}  // namespace socbuf::arch
