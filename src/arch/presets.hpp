// Workload descriptions and the two test systems of the paper:
//   * figure1_system(): the small bridged sample architecture of Figure 1,
//   * network_processor_system(): the network-processor testbench behind
//     Figure 3 and Table 1.
//
// The paper does not publish its exact topologies or rates, so these are
// reconstructions (documented in DESIGN.md): they preserve the structural
// facts the paper states — Figure 1 has processor-only buses plus three
// mutually communicating buses and splits into four subsystems with four
// inserted bridge buffers; the network processor has 17 processors whose
// traffic is strongly asymmetric across bridged cluster buses.
#pragma once

#include "arch/architecture.hpp"

#include <string>
#include <vector>

namespace socbuf::arch {

/// One unidirectional traffic flow between processors. Rates are Poisson
/// packet rates; `weight` scales the flow's loss in every objective.
struct FlowSpec {
    ProcessorId source = 0;
    ProcessorId destination = 0;
    double rate = 0.0;
    double weight = 1.0;
    /// Burstiness: 0 = pure Poisson. Otherwise the source alternates
    /// exponential ON/OFF phases (mean lengths on_time/off_time) and emits
    /// at rate/duty_cycle while ON, preserving the long-run rate.
    double on_time = 0.0;
    double off_time = 0.0;

    [[nodiscard]] bool bursty() const { return on_time > 0.0 && off_time > 0.0; }
};

/// An architecture together with its workload.
struct TestSystem {
    std::string name;
    Architecture architecture;
    std::vector<FlowSpec> flows;
};

/// The Figure 1 sample architecture: buses a, b, f, g; five processors
/// (1, 4 on a; 2, 3 on b; 5 on g); bridges b<->f and f<->g, so b, f and g
/// talk to each other while bus a is processor-only. Splitting inserts
/// four directional bridge buffers (the b1..b4 of Figure 2) and yields
/// four single-bus subsystems.
[[nodiscard]] TestSystem figure1_system();

struct NetworkProcessorParams {
    /// Per-cluster processing elements (4 clusters); 4*pe_per_cluster + 1
    /// control processor = 17 processors by default, matching Figure 3.
    std::size_t pe_per_cluster = 4;
    /// Multiplier on every bus service rate (sweeps bus speed).
    double bus_rate_scale = 1.0;
    /// Multiplier on every flow rate (sweeps offered load).
    double load_scale = 1.0;
    /// Asymmetric clusters: when non-empty, exactly four per-cluster PE
    /// counts (ingress, classify, crypto, egress), each >= 2, overriding
    /// pe_per_cluster. Empty (the default) keeps all clusters at
    /// pe_per_cluster — bit-identical to the pre-override testbench.
    std::vector<std::size_t> cluster_pe;
    /// Topology knob: false drops the crypto cluster (bus, bridge and
    /// PEs) so the architecture has three cluster bridges instead of
    /// four; classify's crypto-detour traffic goes straight to the
    /// egress schedulers, preserving offered load.
    bool crypto_cluster = true;

    /// Effective PE count of cluster `c` (0 = ingress .. 3 = egress).
    [[nodiscard]] std::size_t cluster_size(std::size_t c) const {
        return cluster_pe.empty() ? pe_per_cluster : cluster_pe[c];
    }
};

[[nodiscard]] bool operator==(const NetworkProcessorParams& a,
                              const NetworkProcessorParams& b);
inline bool operator!=(const NetworkProcessorParams& a,
                       const NetworkProcessorParams& b) {
    return !(a == b);
}

/// The network-processor testbench: four cluster buses (ingress parse,
/// classify, egress queue/schedule) joined to a core bus by four bridges;
/// 16 PEs plus one control processor. Traffic follows a packet-processing
/// pipeline (ingress -> classify -> egress) with strongly asymmetric rates
/// plus light control traffic, so buffer demand varies widely across
/// processors — the regime Figure 3 and Table 1 explore.
[[nodiscard]] TestSystem network_processor_system(
    const NetworkProcessorParams& params = {});

}  // namespace socbuf::arch
