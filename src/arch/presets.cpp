#include "arch/presets.hpp"

#include "util/contracts.hpp"

namespace socbuf::arch {

TestSystem figure1_system() {
    TestSystem sys;
    sys.name = "figure1";
    Architecture& a = sys.architecture;
    const BusId bus_a = a.add_bus("a", 4.0);
    const BusId bus_b = a.add_bus("b", 3.0);
    const BusId bus_f = a.add_bus("f", 3.0);
    const BusId bus_g = a.add_bus("g", 3.0);
    const ProcessorId p1 = a.add_processor("1", bus_a);
    const ProcessorId p2 = a.add_processor("2", bus_b);
    const ProcessorId p3 = a.add_processor("3", bus_b);
    const ProcessorId p4 = a.add_processor("4", bus_a);
    const ProcessorId p5 = a.add_processor("5", bus_g);
    a.add_bridge("bf", bus_b, bus_f);
    a.add_bridge("fg", bus_f, bus_g);

    // Bus a is processor-only: 1 and 4 exchange local traffic.
    sys.flows.push_back({p1, p4, 1.1, 1.0, 0.0, 0.0});
    sys.flows.push_back({p4, p1, 0.9, 1.0, 0.0, 0.0});
    // Processors 2, 3 and 5 talk across buses b, f and g (through both
    // bridges), the coupling that makes the monolithic model quadratic.
    // Rates keep every bus under its service rate (bus b, the hottest,
    // runs near rho = 0.85) so buffer sizing — not raw bus capacity — is
    // what decides the losses.
    sys.flows.push_back({p2, p5, 0.60, 1.0, 2.0, 2.0});
    sys.flows.push_back({p3, p5, 0.45, 1.0, 0.0, 0.0});
    sys.flows.push_back({p5, p2, 0.50, 1.0, 2.0, 2.0});
    sys.flows.push_back({p5, p3, 0.30, 1.0, 0.0, 0.0});
    // Local traffic on bus b keeps it the shared hot resource of
    // subsystem 1.
    sys.flows.push_back({p2, p3, 0.40, 1.0, 0.0, 0.0});
    sys.flows.push_back({p3, p2, 0.30, 1.0, 0.0, 0.0});
    return sys;
}

bool operator==(const NetworkProcessorParams& a,
                const NetworkProcessorParams& b) {
    return a.pe_per_cluster == b.pe_per_cluster &&
           a.bus_rate_scale == b.bus_rate_scale &&
           a.load_scale == b.load_scale && a.cluster_pe == b.cluster_pe &&
           a.crypto_cluster == b.crypto_cluster;
}

TestSystem network_processor_system(const NetworkProcessorParams& params) {
    SOCBUF_REQUIRE_MSG(params.pe_per_cluster >= 2,
                       "need at least two PEs per cluster");
    SOCBUF_REQUIRE_MSG(params.load_scale > 0.0, "load scale must be > 0");
    SOCBUF_REQUIRE_MSG(params.bus_rate_scale > 0.0,
                       "bus rate scale must be > 0");
    SOCBUF_REQUIRE_MSG(
        params.cluster_pe.empty() || params.cluster_pe.size() == 4,
        "cluster_pe must be empty or name all four clusters");
    for (const std::size_t n : params.cluster_pe)
        SOCBUF_REQUIRE_MSG(n >= 2, "need at least two PEs per cluster");
    // Per-cluster sizes: uniform pe_per_cluster unless cluster_pe overrides
    // (ingress, classify, crypto, egress). With uniform sizes and the
    // crypto cluster present this function reproduces the original
    // testbench bit for bit — same processor order, same flow order.
    const std::size_t pi = params.cluster_size(0);
    const std::size_t pc = params.cluster_size(1);
    const std::size_t pr = params.cluster_size(2);
    const std::size_t pg = params.cluster_size(3);
    const bool with_crypto = params.crypto_cluster;
    const double ls = params.load_scale;
    const double bs = params.bus_rate_scale;

    TestSystem sys;
    sys.name = "network-processor";
    Architecture& a = sys.architecture;

    // Cluster buses around a core bus, bridged star topology. Rates
    // reflect the pipeline: ingress and egress clusters are the stressed
    // ones (see DESIGN.md for the reconstruction rationale). Dropping the
    // crypto cluster removes its bus and bridge (three cluster bridges
    // instead of four).
    const BusId ingress_bus = a.add_bus("ingress", 4.6 * bs);
    const BusId classify_bus = a.add_bus("classify", 8.4 * bs);
    const BusId crypto_bus =
        with_crypto ? a.add_bus("crypto", 3.3 * bs) : BusId{0};
    const BusId egress_bus = a.add_bus("egress", 10.5 * bs);
    const BusId core_bus = a.add_bus("core", 11.5 * bs);
    a.add_bridge("br_ingress", ingress_bus, core_bus);
    a.add_bridge("br_classify", classify_bus, core_bus);
    if (with_crypto) a.add_bridge("br_crypto", crypto_bus, core_bus);
    a.add_bridge("br_egress", egress_bus, core_bus);

    std::vector<ProcessorId> ingress, classify, crypto, egress;
    std::size_t pe_number = 0;  // cumulative "peN" naming across clusters
    for (std::size_t i = 0; i < pi; ++i)
        ingress.push_back(
            a.add_processor("pe" + std::to_string(++pe_number), ingress_bus));
    for (std::size_t i = 0; i < pc; ++i)
        classify.push_back(
            a.add_processor("pe" + std::to_string(++pe_number), classify_bus));
    if (with_crypto)
        for (std::size_t i = 0; i < pr; ++i)
            crypto.push_back(a.add_processor(
                "pe" + std::to_string(++pe_number), crypto_bus));
    for (std::size_t i = 0; i < pg; ++i)
        egress.push_back(
            a.add_processor("pe" + std::to_string(++pe_number), egress_bus));
    const ProcessorId cp = a.add_processor("cp", core_bus);

    auto flow = [&](ProcessorId s, ProcessorId d, double rate, double on = 0.0,
                    double off = 0.0) {
        sys.flows.push_back({s, d, rate * ls, 1.0, on, off});
    };

    // Ingress PEs push parsed packets to their classify peers (wrapping
    // when the clusters are asymmetric). Slightly bursty (packet trains)
    // and asymmetric so the leftmost processors of Figure 3 show moderate
    // loss.
    const double ingress_rate[] = {0.85, 0.75, 0.75, 0.95};
    for (std::size_t i = 0; i < pi; ++i)
        flow(ingress[i], classify[i % pc], ingress_rate[i % 4]);

    // Classify splits traffic: the bulk goes straight to egress, the
    // remainder detours through the crypto cluster — or, without one,
    // straight to the egress schedulers (load preserved).
    const double direct_rate[] = {0.60, 0.55, 0.55, 0.70};
    const double crypto_rate[] = {0.30, 0.25, 0.25, 0.30};
    for (std::size_t i = 0; i < pc; ++i) {
        flow(classify[i], egress[i % pg], direct_rate[i % 4]);
        if (with_crypto)
            flow(classify[i], crypto[i % pr], crypto_rate[i % 4]);
        else
            flow(classify[i], egress[pg - 2 + (i % 2)], crypto_rate[i % 4]);
    }

    // Crypto results concentrate on the two scheduler PEs at the end of the
    // egress cluster (the future display processors 15 and 16).
    if (with_crypto)
        for (std::size_t i = 0; i < pr; ++i)
            flow(crypto[i], egress[pg - 2 + (i % 2)], crypto_rate[i % 4]);

    // Egress schedulers emit the final aggregated wire streams to the MAC
    // PEs on the same bus: heavy and deeply bursty, the workload whose
    // buffer demand uniform sizing underestimates most (the paper's
    // processors 15 and 16). At pg == 2 the scheduler and MAC roles fall
    // on the same two PEs, so the streams cross the pair instead of
    // degenerating into self-flows (routing rejects source ==
    // destination).
    if (pg >= 3) {
        flow(egress[pg - 2], egress[0], 1.6, 3.0, 1.5);
        flow(egress[pg - 1], egress[1], 2.2, 4.0, 2.0);
    } else {
        flow(egress[1], egress[0], 1.6, 3.0, 1.5);
        flow(egress[0], egress[1], 2.2, 4.0, 2.0);
    }

    // Light intra-cluster chatter keeps every bus busy. The [1] <-> [2]
    // pairs only exist in clusters with >= 3 PEs (the contract above
    // guarantees >= 2, where the chatter reduces to the egress pair).
    if (pi >= 3) {
        flow(ingress[1], ingress[2], 0.2);
        flow(ingress[2], ingress[1], 0.2);
    }
    if (pc >= 3) {
        flow(classify[1], classify[2], 0.2);
        flow(classify[2], classify[1], 0.2);
    }
    if (with_crypto && pr >= 3) {
        flow(crypto[1], crypto[2], 0.15);
        flow(crypto[2], crypto[1], 0.15);
    }
    flow(egress[0], egress[1], 0.25);
    flow(egress[1], egress[0], 0.25);

    // Control plane: the CP polls one PE per cluster; the last PE of each
    // cluster reports statistics back.
    flow(cp, ingress[0], 0.2);
    flow(cp, classify[0], 0.2);
    if (with_crypto) flow(cp, crypto[0], 0.2);
    flow(cp, egress[0], 0.2);
    flow(ingress[pi - 1], cp, 0.15);
    flow(classify[pc - 1], cp, 0.15);
    if (with_crypto) flow(crypto[pr - 1], cp, 0.15);
    flow(egress[pg - 1], cp, 0.15);
    return sys;
}

}  // namespace socbuf::arch
