#include "sim/simulator.hpp"

#include "des/scheduler.hpp"
#include "des/stats.hpp"
#include "exec/executor.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/routing.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

#include <algorithm>
#include <deque>
#include <memory>

namespace socbuf::sim {

namespace {

struct Packet {
    std::size_t flow = 0;
    std::size_t hop = 0;          // index into the flow's route
    double enqueue_time = 0.0;    // when it entered the current buffer
    bool counted = false;         // generated after warmup
};

struct SiteRuntime {
    std::deque<Packet> queue;
    long capacity = 0;
    des::TimeWeighted occupancy;
    des::Tally wait;  // waiting time of packets that reached service
    std::uint64_t arrivals = 0;
    std::uint64_t losses = 0;
    std::uint64_t served = 0;
};

struct BusRuntime {
    bool busy = false;
    arch::SiteId serving_site = 0;
    double busy_since = 0.0;
    double busy_in_window = 0.0;  // accumulated within [warmup, horizon]
    std::size_t rr_cursor = 0;    // round-robin position
    std::vector<arch::SiteId> sites;
};

class ArchitectureSimulatorImpl {
public:
    ArchitectureSimulatorImpl(const arch::TestSystem& system,
                              const std::vector<long>& capacities,
                              const SimConfig& config)
        : system_(system), config_(config), root_engine_(config.seed) {
        system.architecture.validate();
        sites_ = arch::enumerate_buffer_sites(system.architecture);
        SOCBUF_REQUIRE_MSG(capacities.size() == sites_.size(),
                           "capacity vector must cover every buffer site");
        SOCBUF_REQUIRE_MSG(config.horizon > config.warmup,
                           "horizon must exceed warmup");
        SOCBUF_REQUIRE_MSG(!config.timeout_enabled ||
                               config.timeout_threshold > 0.0 ||
                               !config.site_timeout_thresholds.empty(),
                           "timeout policy needs a positive threshold");
        SOCBUF_REQUIRE_MSG(config.site_timeout_thresholds.empty() ||
                               config.site_timeout_thresholds.size() ==
                                   sites_.size(),
                           "per-site thresholds must cover every site");
        routes_ = traffic::compute_routes(system);

        site_rt_.resize(sites_.size());
        for (std::size_t s = 0; s < sites_.size(); ++s) {
            SOCBUF_REQUIRE_MSG(capacities[s] >= 0,
                               "buffer capacities must be non-negative");
            site_rt_[s].capacity = capacities[s];
            site_rt_[s].occupancy.update(0.0, 0.0);
        }
        bus_rt_.resize(system.architecture.bus_count());
        for (arch::BusId b = 0; b < bus_rt_.size(); ++b)
            bus_rt_[b].sites = arch::sites_on_bus(sites_, b);

        for (std::size_t f = 0; f < system.flows.size(); ++f) {
            arrivals_.push_back(
                traffic::make_arrival_process(system.flows[f]));
            flow_engines_.push_back(root_engine_.spawn(f));
        }
        for (arch::BusId b = 0; b < bus_rt_.size(); ++b)
            bus_engines_.push_back(root_engine_.spawn(100000u + b));
    }

    SimResult run() {
        // At most one pending arrival per flow and one pending completion
        // per bus, so this is the heap's size for the whole run.
        sched_.reserve(system_.flows.size() + bus_rt_.size());
        for (std::size_t f = 0; f < system_.flows.size(); ++f)
            schedule_next_arrival(f);
        des::Event event;
        while (sched_.next(config_.horizon, event)) {
            switch (event.kind) {
                case des::EventKind::kArrival:
                    on_arrival(event.index);
                    schedule_next_arrival(event.index);
                    break;
                case des::EventKind::kServiceCompletion:
                    complete_service(event.index);
                    break;
            }
        }
        return collect();
    }

private:
    void schedule_next_arrival(std::size_t flow) {
        const double gap =
            arrivals_[flow]->next_interarrival(flow_engines_[flow]);
        sched_.schedule_after(gap, des::EventKind::kArrival, flow);
    }

    void on_arrival(std::size_t flow) {
        const double now = sched_.now();
        Packet p;
        p.flow = flow;
        p.hop = 0;
        p.counted = now > config_.warmup;
        if (p.counted) ++offered_[system_.flows[flow].source];
        enqueue(p, routes_[flow].sites[0]);
    }

    /// Place `packet` into `site`'s buffer or count it as a loss.
    void enqueue(Packet packet, arch::SiteId site) {
        const double now = sched_.now();
        SiteRuntime& rt = site_rt_[site];
        if (now > config_.warmup) ++rt.arrivals;
        if (static_cast<long>(rt.queue.size()) >= rt.capacity) {
            drop(packet, site);
            return;
        }
        packet.enqueue_time = now;
        rt.queue.push_back(packet);
        rt.occupancy.update(now, static_cast<double>(rt.queue.size()));
        BusRuntime& bus = bus_rt_[sites_[site].bus];
        if (!bus.busy) begin_service(sites_[site].bus);
    }

    void drop(const Packet& packet, arch::SiteId site) {
        if (sched_.now() > config_.warmup) ++site_rt_[site].losses;
        if (packet.counted) {
            ++lost_[system_.flows[packet.flow].source];
            ++flow_lost_[packet.flow];
        }
    }

    /// Timeout policy: shed expired packets from the heads of every queue
    /// on the bus (FIFO order means the head is always the oldest).
    [[nodiscard]] double threshold_of(arch::SiteId site) const {
        if (!config_.site_timeout_thresholds.empty() &&
            config_.site_timeout_thresholds[site] > 0.0)
            return config_.site_timeout_thresholds[site];
        return config_.timeout_threshold;
    }

    void purge_expired(BusRuntime& bus) {
        const double now = sched_.now();
        for (const auto site : bus.sites) {
            SiteRuntime& rt = site_rt_[site];
            const double threshold = threshold_of(site);
            bool changed = false;
            while (!rt.queue.empty() &&
                   now - rt.queue.front().enqueue_time > threshold) {
                drop(rt.queue.front(), site);
                rt.queue.pop_front();
                changed = true;
            }
            if (changed)
                rt.occupancy.update(now,
                                    static_cast<double>(rt.queue.size()));
        }
    }

    /// Round-robin arbitration: the next non-empty site at or after the
    /// bus's cursor; sites_.size() when every queue is empty.
    arch::SiteId arbitrate(arch::BusId bus_id) {
        BusRuntime& bus = bus_rt_[bus_id];
        for (std::size_t k = 0; k < bus.sites.size(); ++k) {
            const std::size_t idx = (bus.rr_cursor + k) % bus.sites.size();
            const auto site = bus.sites[idx];
            if (!site_rt_[site].queue.empty()) {
                bus.rr_cursor = (idx + 1) % bus.sites.size();
                return site;
            }
        }
        return sites_.size();
    }

    void begin_service(arch::BusId bus_id) {
        BusRuntime& bus = bus_rt_[bus_id];
        SOCBUF_ASSERT(!bus.busy);
        if (config_.timeout_enabled) purge_expired(bus);
        const arch::SiteId site = arbitrate(bus_id);
        if (site == sites_.size()) return;  // nothing to serve
        bus.busy = true;
        bus.serving_site = site;
        bus.busy_since = sched_.now();
        SiteRuntime& rt = site_rt_[site];
        rt.wait.observe(sched_.now() - rt.queue.front().enqueue_time);
        if (sched_.now() > config_.warmup) ++rt.served;
        const double service =
            bus_engines_[bus_id].exponential(
                system_.architecture.bus(bus_id).service_rate);
        sched_.schedule_after(service, des::EventKind::kServiceCompletion,
                              bus_id);
    }

    void complete_service(arch::BusId bus_id) {
        const double now = sched_.now();
        BusRuntime& bus = bus_rt_[bus_id];
        SOCBUF_ASSERT(bus.busy);
        bus.busy = false;
        const double lo = std::max(bus.busy_since, config_.warmup);
        if (now > lo) bus.busy_in_window += now - lo;

        SiteRuntime& rt = site_rt_[bus.serving_site];
        SOCBUF_ASSERT(!rt.queue.empty());
        Packet packet = rt.queue.front();
        rt.queue.pop_front();
        rt.occupancy.update(now, static_cast<double>(rt.queue.size()));

        const auto& route = routes_[packet.flow];
        if (packet.hop + 1 >= route.sites.size()) {
            if (packet.counted)
                ++delivered_[system_.flows[packet.flow].source];
        } else {
            ++packet.hop;
            enqueue(packet, route.sites[packet.hop]);
        }
        begin_service(bus_id);
    }

    SimResult collect() {
        SimResult out;
        out.measured_time = config_.horizon - config_.warmup;
        out.events_fired = sched_.fired_count();
        out.offered = offered_;
        out.delivered = delivered_;
        out.lost = lost_;
        out.flow_lost = flow_lost_;
        out.site_arrivals.resize(sites_.size());
        out.site_losses.resize(sites_.size());
        out.site_mean_wait.resize(sites_.size());
        out.site_mean_occupancy.resize(sites_.size());
        out.site_observed_rate.resize(sites_.size());
        out.site_served.resize(sites_.size());
        for (std::size_t s = 0; s < sites_.size(); ++s) {
            out.site_arrivals[s] = site_rt_[s].arrivals;
            out.site_losses[s] = site_rt_[s].losses;
            out.site_mean_wait[s] = site_rt_[s].wait.mean();
            out.site_mean_occupancy[s] =
                site_rt_[s].occupancy.average(config_.horizon);
            out.site_observed_rate[s] =
                static_cast<double>(site_rt_[s].arrivals) /
                out.measured_time;
            out.site_served[s] = site_rt_[s].served;
        }
        out.bus_utilization.resize(bus_rt_.size());
        for (arch::BusId b = 0; b < bus_rt_.size(); ++b) {
            double busy = bus_rt_[b].busy_in_window;
            if (bus_rt_[b].busy) {
                const double lo =
                    std::max(bus_rt_[b].busy_since, config_.warmup);
                if (config_.horizon > lo) busy += config_.horizon - lo;
            }
            out.bus_utilization[b] = busy / out.measured_time;
        }
        return out;
    }

    const arch::TestSystem& system_;
    SimConfig config_;
    rng::RandomEngine root_engine_;
    std::vector<arch::BufferSite> sites_;
    std::vector<traffic::FlowRoute> routes_;
    std::vector<std::unique_ptr<traffic::ArrivalProcess>> arrivals_;
    std::vector<rng::RandomEngine> flow_engines_;
    std::vector<rng::RandomEngine> bus_engines_;
    std::vector<SiteRuntime> site_rt_;
    std::vector<BusRuntime> bus_rt_;
    des::Scheduler sched_;

    std::vector<std::uint64_t> offered_ =
        std::vector<std::uint64_t>(system_.architecture.processor_count(), 0);
    std::vector<std::uint64_t> delivered_ =
        std::vector<std::uint64_t>(system_.architecture.processor_count(), 0);
    std::vector<std::uint64_t> lost_ =
        std::vector<std::uint64_t>(system_.architecture.processor_count(), 0);
    std::vector<std::uint64_t> flow_lost_ =
        std::vector<std::uint64_t>(system_.flows.size(), 0);
};

}  // namespace

SimResult simulate(const arch::TestSystem& system,
                   const std::vector<long>& capacities,
                   const SimConfig& config) {
    ArchitectureSimulatorImpl impl(system, capacities, config);
    return impl.run();
}

TimeoutCalibration calibrate_timeout(const arch::TestSystem& system,
                                     const std::vector<long>& capacities,
                                     const SimConfig& config, double scale,
                                     exec::Executor& executor,
                                     std::size_t replications) {
    SOCBUF_REQUIRE_MSG(scale > 0.0, "threshold scale must be positive");
    SOCBUF_REQUIRE_MSG(replications > 0,
                       "need at least one calibration replication");
    // The calibration sims are independent (each owns its RNG substream:
    // seed = base seed + replication index), so they fan across the
    // executor's workers; the folds below run in replication order, which
    // keeps the thresholds bit-identical for any worker count.
    const std::vector<SimResult> results =
        executor.map(replications, [&](std::size_t r) {
            SimConfig calib = config;
            calib.timeout_enabled = false;
            calib.seed = config.seed + r;
            return simulate(system, capacities, calib);
        });

    TimeoutCalibration out;
    const double n = static_cast<double>(replications);
    double global_sum = 0.0;
    for (const SimResult& r : results) global_sum += r.overall_mean_wait();
    out.global_threshold = scale * (global_sum / n);

    // Per site: apply the no-traffic fallback within each replication
    // (so one replication gives exactly that simulation's per-site
    // means), then average the per-replication bases.
    out.site_thresholds.assign(results[0].site_mean_wait.size(), 0.0);
    for (const SimResult& r : results) {
        const double global = r.overall_mean_wait();
        for (std::size_t s = 0; s < out.site_thresholds.size(); ++s)
            out.site_thresholds[s] +=
                r.site_served[s] > 0 ? r.site_mean_wait[s] : global;
    }
    for (double& threshold : out.site_thresholds)
        threshold = std::max(threshold / n, 1e-9) * scale;
    return out;
}

ReplicatedLosses fold_replications(const std::vector<SimResult>& results) {
    SOCBUF_REQUIRE_MSG(!results.empty(), "need at least one replication");
    const std::size_t n = results.front().lost.size();
    std::vector<std::vector<double>> samples(n);
    ReplicatedLosses out;
    for (const SimResult& res : results) {
        for (std::size_t p = 0; p < n; ++p)
            samples[p].push_back(static_cast<double>(res.lost[p]));
        out.mean_total_lost += static_cast<double>(res.total_lost());
        out.mean_total_offered += static_cast<double>(res.total_offered());
    }
    const auto runs = static_cast<double>(results.size());
    out.mean_total_lost /= runs;
    out.mean_total_offered /= runs;
    out.mean_lost_per_processor.resize(n);
    out.stddev_lost_per_processor.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
        out.mean_lost_per_processor[p] = util::mean(samples[p]);
        out.stddev_lost_per_processor[p] = util::sample_stddev(samples[p]);
    }
    return out;
}

ReplicatedLosses replicate_losses(const arch::TestSystem& system,
                                  const std::vector<long>& capacities,
                                  const SimConfig& config, std::size_t runs,
                                  exec::Executor& executor) {
    // Each replication owns its RNG substream, so the runs are independent
    // and can execute on any number of workers; the ordered fold keeps the
    // aggregate bit-identical for every worker count.
    return fold_replications(executor.map(runs, [&](std::size_t r) {
        SimConfig c = config;
        c.seed = config.seed + r;
        return simulate(system, capacities, c);
    }));
}

}  // namespace socbuf::sim
