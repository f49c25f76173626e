// SoC communication architecture description: processors attached to
// buses, buses joined by bridges (the AMBA / CoreConnect shape the paper
// targets). Purely structural — rates live in the workload (FlowSpec) and
// runtime behaviour in sim/.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace socbuf::arch {

using ProcessorId = std::size_t;
using BusId = std::size_t;
using BridgeId = std::size_t;

struct Processor {
    std::string name;
    BusId bus = 0;  // the single bus this processor is attached to
};

struct Bus {
    std::string name;
    double service_rate = 1.0;  // transfers completed per unit time
};

/// A bridge joins exactly two buses and forwards traffic in both
/// directions. Bridge buffers are *not* part of the structure: the paper's
/// method inserts them (split::), and sim/ materializes them.
struct Bridge {
    std::string name;
    BusId bus_a = 0;
    BusId bus_b = 0;
};

class Architecture {
public:
    BusId add_bus(std::string name, double service_rate);
    ProcessorId add_processor(std::string name, BusId bus);
    BridgeId add_bridge(std::string name, BusId bus_a, BusId bus_b);

    [[nodiscard]] std::size_t bus_count() const { return buses_.size(); }
    [[nodiscard]] std::size_t processor_count() const {
        return processors_.size();
    }
    [[nodiscard]] std::size_t bridge_count() const { return bridges_.size(); }

    [[nodiscard]] const Bus& bus(BusId id) const;
    [[nodiscard]] const Processor& processor(ProcessorId id) const;
    [[nodiscard]] const Bridge& bridge(BridgeId id) const;

    [[nodiscard]] std::vector<BridgeId> bridges_of_bus(BusId bus) const;

    /// The bus on the other side of `bridge` from `bus`.
    [[nodiscard]] BusId bridge_peer(BridgeId bridge, BusId bus) const;

    /// Shortest bus-level route from `from` to `to` as the sequence of
    /// bridges to traverse (empty when from == to). Throws ModelError when
    /// the buses are not connected.
    [[nodiscard]] std::vector<BridgeId> route(BusId from, BusId to) const;

    /// Structural validation (ids in range, positive service rates, bridges
    /// join distinct buses, no empty architecture). Throws ModelError.
    void validate() const;

private:
    std::vector<Bus> buses_;
    std::vector<Processor> processors_;
    std::vector<Bridge> bridges_;
};

}  // namespace socbuf::arch
