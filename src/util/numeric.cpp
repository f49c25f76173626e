#include "util/numeric.hpp"

#include "util/contracts.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace socbuf::util {

double stable_sum(const std::vector<double>& values) {
    double sum = 0.0;
    double carry = 0.0;
    for (double v : values) {
        const double y = v - carry;
        const double t = sum + y;
        carry = (t - sum) - y;
        sum = t;
    }
    return sum;
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    return stable_sum(values) / static_cast<double>(values.size());
}

double sample_stddev(const std::vector<double>& values) {
    if (values.size() < 2) return 0.0;
    const double m = mean(values);
    double acc = 0.0;
    for (double v : values) acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

std::vector<long> apportion_largest_remainder(long total,
                                              const std::vector<double>& weights,
                                              long floor_per_entry) {
    SOCBUF_REQUIRE_MSG(!weights.empty(), "need at least one weight");
    SOCBUF_REQUIRE_MSG(total >= 0, "total must be non-negative");
    SOCBUF_REQUIRE_MSG(floor_per_entry >= 0, "floor must be non-negative");
    const long n = static_cast<long>(weights.size());
    SOCBUF_REQUIRE_MSG(floor_per_entry * n <= total,
                       "floors alone exceed the total");
    for (double w : weights)
        SOCBUF_REQUIRE_MSG(w >= 0.0, "weights must be non-negative");

    std::vector<long> out(weights.size(), floor_per_entry);
    long remaining = total - floor_per_entry * n;
    double weight_sum = stable_sum(weights);
    if (weight_sum <= 0.0) {
        // Degenerate: spread evenly, front-loaded.
        for (std::size_t i = 0; remaining > 0; i = (i + 1) % weights.size()) {
            ++out[i];
            --remaining;
        }
        return out;
    }

    std::vector<double> remainders(weights.size());
    long assigned = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double exact =
            static_cast<double>(remaining) * weights[i] / weight_sum;
        const long whole = static_cast<long>(std::floor(exact));
        out[i] += whole;
        assigned += whole;
        remainders[i] = exact - static_cast<double>(whole);
    }
    long leftover = remaining - assigned;
    // Hand out the leftover units by decreasing fractional remainder,
    // breaking ties toward lower index for determinism.
    std::vector<std::size_t> order(weights.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return remainders[a] > remainders[b];
                     });
    for (std::size_t k = 0; leftover > 0; ++k, --leftover)
        ++out[order[k % order.size()]];
    return out;
}

std::size_t argmax(const std::vector<double>& values) {
    SOCBUF_REQUIRE_MSG(!values.empty(), "argmax of empty vector");
    return static_cast<std::size_t>(
        std::distance(values.begin(),
                      std::max_element(values.begin(), values.end())));
}

std::size_t lower_bound_index(const std::vector<double>& cumulative,
                              double x) {
    SOCBUF_REQUIRE_MSG(!cumulative.empty(), "empty cumulative vector");
    auto it = std::lower_bound(cumulative.begin(), cumulative.end(), x);
    if (it == cumulative.end()) return cumulative.size() - 1;
    return static_cast<std::size_t>(std::distance(cumulative.begin(), it));
}

}  // namespace socbuf::util
