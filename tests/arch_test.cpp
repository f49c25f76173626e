#include "arch/architecture.hpp"
#include "arch/presets.hpp"
#include "arch/sites.hpp"
#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <map>

namespace sa = socbuf::arch;

namespace {

/// Three buses in a line: x -- y -- z, one processor each.
sa::Architecture line_arch() {
    sa::Architecture a;
    const auto x = a.add_bus("x", 1.0);
    const auto y = a.add_bus("y", 1.0);
    const auto z = a.add_bus("z", 1.0);
    a.add_processor("px", x);
    a.add_processor("py", y);
    a.add_processor("pz", z);
    a.add_bridge("xy", x, y);
    a.add_bridge("yz", y, z);
    return a;
}

}  // namespace

TEST(Architecture, BuilderAndAccessors) {
    const auto a = line_arch();
    EXPECT_EQ(a.bus_count(), 3u);
    EXPECT_EQ(a.processor_count(), 3u);
    EXPECT_EQ(a.bridge_count(), 2u);
    EXPECT_EQ(a.bus(0).name, "x");
    EXPECT_EQ(a.processor(1).name, "py");
    EXPECT_NO_THROW(a.validate());
}

TEST(Architecture, RejectsBadConstruction) {
    sa::Architecture a;
    EXPECT_THROW(a.add_bus("bad", 0.0), socbuf::util::ContractViolation);
    const auto b = a.add_bus("b", 1.0);
    EXPECT_THROW(a.add_processor("p", 99), socbuf::util::ContractViolation);
    EXPECT_THROW(a.add_bridge("self", b, b),
                 socbuf::util::ContractViolation);
}

TEST(Architecture, BridgeQueries) {
    const auto a = line_arch();
    EXPECT_EQ(a.bridge_peer(0, 0), 1u);
    EXPECT_EQ(a.bridge_peer(0, 1), 0u);
    EXPECT_THROW((void)a.bridge_peer(0, 2), socbuf::util::ContractViolation);
}

TEST(Architecture, RoutesAreShortest) {
    const auto a = line_arch();
    EXPECT_TRUE(a.route(1, 1).empty());
    const auto direct = a.route(0, 1);
    ASSERT_EQ(direct.size(), 1u);
    EXPECT_EQ(direct[0], 0u);
    const auto two_hop = a.route(0, 2);
    ASSERT_EQ(two_hop.size(), 2u);
    EXPECT_EQ(two_hop[0], 0u);
    EXPECT_EQ(two_hop[1], 1u);
}

TEST(Architecture, DisconnectedBusesDetected) {
    sa::Architecture a;
    const auto x = a.add_bus("x", 1.0);
    const auto y = a.add_bus("y", 1.0);
    a.add_processor("px", x);
    a.add_processor("py", y);
    EXPECT_THROW(a.route(x, y), socbuf::util::ModelError);
    a.add_bridge("xy", x, y);
    EXPECT_EQ(a.route(x, y).size(), 1u);
}

TEST(Sites, EnumerationOrderAndContent) {
    const auto a = line_arch();
    const auto sites = sa::enumerate_buffer_sites(a);
    // 3 processors + 2 bridges * 2 directions.
    ASSERT_EQ(sites.size(), 7u);
    for (std::size_t p = 0; p < 3; ++p) {
        EXPECT_EQ(sites[p].kind, sa::SiteKind::kProcessor);
        EXPECT_EQ(sites[p].owner, p);
        EXPECT_EQ(sites[p].bus, a.processor(p).bus);
    }
    // Bridge xy, direction x->y contends on y.
    const auto s_xy = sa::bridge_site(a, 0, 0);
    EXPECT_EQ(sites[s_xy].kind, sa::SiteKind::kBridge);
    EXPECT_EQ(sites[s_xy].bus, 1u);
    EXPECT_EQ(sites[s_xy].from_bus, 0u);
    // Reverse direction contends on x.
    const auto s_yx = sa::bridge_site(a, 0, 1);
    EXPECT_EQ(sites[s_yx].bus, 0u);
}

TEST(Sites, SiteLookupsAgreeWithEnumeration) {
    const auto a = line_arch();
    const auto sites = sa::enumerate_buffer_sites(a);
    for (std::size_t p = 0; p < a.processor_count(); ++p)
        EXPECT_EQ(sa::processor_site(a, p), p);
    for (std::size_t b = 0; b < a.bridge_count(); ++b) {
        const auto& br = a.bridge(b);
        const auto ab = sa::bridge_site(a, b, br.bus_a);
        const auto ba = sa::bridge_site(a, b, br.bus_b);
        EXPECT_NE(ab, ba);
        EXPECT_EQ(sites[ab].owner, b);
        EXPECT_EQ(sites[ba].owner, b);
    }
}

TEST(Sites, SitesOnBusPartitionTheSites) {
    const auto a = line_arch();
    const auto sites = sa::enumerate_buffer_sites(a);
    std::size_t total = 0;
    for (sa::BusId b = 0; b < a.bus_count(); ++b)
        total += sa::sites_on_bus(sites, b).size();
    EXPECT_EQ(total, sites.size());
}

TEST(Sites, CostModelStampsPerKindUnitCosts) {
    const auto a = line_arch();
    // The default model leaves the enumeration identical to the
    // cost-free overload: every site priced at 1.0.
    const auto plain = sa::enumerate_buffer_sites(a);
    const auto defaulted = sa::enumerate_buffer_sites(a, sa::SiteCostModel{});
    ASSERT_EQ(plain.size(), defaulted.size());
    for (std::size_t s = 0; s < plain.size(); ++s) {
        EXPECT_EQ(plain[s].unit_cost, 1.0);
        EXPECT_EQ(defaulted[s].unit_cost, 1.0);
        EXPECT_EQ(plain[s].name, defaulted[s].name);
    }
    // A heterogeneous model prices by kind.
    sa::SiteCostModel model;
    model.processor_cost = 0.5;
    model.bridge_cost = 3.0;
    EXPECT_EQ(model.cost_of(sa::SiteKind::kProcessor), 0.5);
    EXPECT_EQ(model.cost_of(sa::SiteKind::kBridge), 3.0);
    const auto priced = sa::enumerate_buffer_sites(a, model);
    for (const auto& site : priced)
        EXPECT_EQ(site.unit_cost,
                  site.kind == sa::SiteKind::kBridge ? 3.0 : 0.5)
            << site.name;
}

TEST(Sites, CandidateBridgeSitesAreTheBridgeSitesInOrder) {
    const auto a = line_arch();
    const auto sites = sa::enumerate_buffer_sites(a);
    const auto candidates = sa::candidate_bridge_sites(sites);
    // Exactly the bridge sites (2 bridges x 2 directions), strictly
    // ascending — the order the insertion search's masks index.
    ASSERT_EQ(candidates.size(), 4u);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        EXPECT_EQ(sites[candidates[i]].kind, sa::SiteKind::kBridge);
        if (i > 0) {
            EXPECT_LT(candidates[i - 1], candidates[i]);
        }
    }
    // No processor site is ever a candidate.
    std::size_t bridge_sites = 0;
    for (const auto& site : sites)
        if (site.kind == sa::SiteKind::kBridge) ++bridge_sites;
    EXPECT_EQ(candidates.size(), bridge_sites);
}

TEST(Figure1, MatchesPaperStructure) {
    const auto sys = sa::figure1_system();
    const auto& a = sys.architecture;
    EXPECT_NO_THROW(a.validate());
    EXPECT_EQ(a.processor_count(), 5u);
    EXPECT_EQ(a.bus_count(), 4u);   // a, b, f, g
    EXPECT_EQ(a.bridge_count(), 2u);  // b<->f, f<->g
    // Four directional bridge buffers will be inserted by the split —
    // the b1..b4 of Figure 2.
    EXPECT_EQ(sa::enumerate_buffer_sites(a).size(), 5u + 4u);
    // Bus "a" is processor-only (no bridges).
    EXPECT_TRUE(a.bridges_of_bus(0).empty());
    // Buses b, f, g talk to each other: b reaches g through f.
    EXPECT_EQ(a.route(1, 3).size(), 2u);
    EXPECT_FALSE(a.bridges_of_bus(1).empty());
    EXPECT_FALSE(a.bridges_of_bus(2).empty());
    EXPECT_FALSE(a.bridges_of_bus(3).empty());
}

TEST(Figure1, FlowsCrossTheBridges) {
    const auto sys = sa::figure1_system();
    const auto& a = sys.architecture;
    bool multi_hop = false;
    for (const auto& f : sys.flows) {
        ASSERT_LT(f.source, a.processor_count());
        ASSERT_LT(f.destination, a.processor_count());
        ASSERT_GT(f.rate, 0.0);
        const auto route = a.route(a.processor(f.source).bus,
                                   a.processor(f.destination).bus);
        multi_hop |= route.size() >= 2;
    }
    EXPECT_TRUE(multi_hop) << "figure-1 traffic must cross two bridges";
}

TEST(NetworkProcessor, SeventeenProcessorsFiveBuses) {
    const auto sys = sa::network_processor_system();
    const auto& a = sys.architecture;
    EXPECT_NO_THROW(a.validate());
    EXPECT_EQ(a.processor_count(), 17u);  // 16 PEs + control processor
    EXPECT_EQ(a.bus_count(), 5u);
    EXPECT_EQ(a.bridge_count(), 4u);
    for (sa::BusId bus = 1; bus < a.bus_count(); ++bus)
        EXPECT_NO_THROW((void)a.route(0, bus)) << "bus " << bus;
    EXPECT_EQ(sa::enumerate_buffer_sites(a).size(), 17u + 8u);
}

TEST(NetworkProcessor, EveryBusIsStableInTheLongRun) {
    // Long-run offered load on each bus (local flows + bridge transits)
    // must stay below its service rate, otherwise no buffer allocation can
    // ever drive losses to zero (Table 1 reaches zero at budget 640).
    const auto sys = sa::network_processor_system();
    const auto& a = sys.architecture;
    std::map<sa::BusId, double> load;
    for (const auto& f : sys.flows) {
        const auto src_bus = a.processor(f.source).bus;
        const auto dst_bus = a.processor(f.destination).bus;
        load[src_bus] += f.rate;
        sa::BusId cursor = src_bus;
        for (const auto br : a.route(src_bus, dst_bus)) {
            const auto next = a.bridge_peer(br, cursor);
            load[next] += f.rate;
            cursor = next;
        }
    }
    for (const auto& [bus, rho] : load) {
        EXPECT_LT(rho, a.bus(bus).service_rate)
            << "bus " << a.bus(bus).name << " is overloaded";
        EXPECT_GT(rho, 0.3 * a.bus(bus).service_rate)
            << "bus " << a.bus(bus).name
            << " is too idle to ever lose packets";
    }
}

TEST(NetworkProcessor, AsymmetricTrafficForHotEgress) {
    const auto sys = sa::network_processor_system();
    std::vector<double> rates(sys.architecture.processor_count(), 0.0);
    for (const auto& f : sys.flows) rates[f.source] += f.rate;
    ASSERT_EQ(rates.size(), 17u);
    // Display processors 15 and 16 (ids 14, 15) are the schedulers whose
    // outbound load dominates — the paper's big winners after resizing.
    double hottest = 0.0;
    for (double r : rates) hottest = std::max(hottest, r);
    EXPECT_DOUBLE_EQ(rates[15], hottest);
    EXPECT_GT(rates[14], rates[0]);
    // Every processor originates some traffic (Figure 3 has a bar for
    // every processor).
    for (std::size_t p = 0; p < rates.size(); ++p)
        EXPECT_GT(rates[p], 0.0) << "processor " << p + 1;
}

TEST(NetworkProcessor, LoadScaleScalesEveryFlow) {
    const auto base = sa::network_processor_system();
    sa::NetworkProcessorParams params;
    params.load_scale = 2.0;
    const auto scaled = sa::network_processor_system(params);
    ASSERT_EQ(base.flows.size(), scaled.flows.size());
    for (std::size_t i = 0; i < base.flows.size(); ++i)
        EXPECT_NEAR(scaled.flows[i].rate, 2.0 * base.flows[i].rate, 1e-12);
}

TEST(NetworkProcessor, ParameterValidation) {
    sa::NetworkProcessorParams bad;
    bad.pe_per_cluster = 1;
    EXPECT_THROW(sa::network_processor_system(bad),
                 socbuf::util::ContractViolation);
    sa::NetworkProcessorParams bad2;
    bad2.load_scale = 0.0;
    EXPECT_THROW(sa::network_processor_system(bad2),
                 socbuf::util::ContractViolation);
}
