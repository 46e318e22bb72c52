#include "passes/coloring.hh"

#include <algorithm>

#include "common/logging.hh"
#include "passes/walsh.hh"

namespace casq {

const std::vector<int> &
colorPreferenceOrder(int max_color)
{
    // orders[m] is the preference order of rows 1..m, built once.
    static const std::vector<std::vector<int>> orders = [] {
        std::vector<std::vector<int>> out(kMaxWalshRow + 1);
        for (int m = 1; m <= kMaxWalshRow; ++m) {
            std::vector<int> &order = out[m];
            for (int k = 1; k <= m; ++k)
                order.push_back(k);
            std::stable_sort(order.begin(), order.end(),
                             [](int a, int b) {
                                 const std::size_t pa =
                                     walshPulseCount(a);
                                 const std::size_t pb =
                                     walshPulseCount(b);
                                 if (pa != pb)
                                     return pa < pb;
                                 return a < b;
                             });
        }
        return out;
    }();
    casq_assert(max_color <= kMaxWalshRow, "maxColor ", max_color,
                " exceeds the highest tabulated Walsh row ",
                kMaxWalshRow);
    return orders[std::max(max_color, 0)];
}

std::map<std::uint32_t, int>
greedyColor(const ColoringProblem &problem,
            const CrosstalkGraph &graph)
{
    std::map<std::uint32_t, int> colors;
    const std::vector<int> &preference =
        colorPreferenceOrder(problem.maxColor);

    // Constrained-first ordering: idle qubits adjacent to pinned
    // actives come first (more pinned neighbours = earlier), ties
    // broken by index for determinism.
    std::vector<std::uint32_t> order = problem.idleQubits;
    auto pinned_degree = [&](std::uint32_t q) {
        int d = 0;
        for (auto n : graph.neighbors(q))
            if (problem.pinned.count(n))
                ++d;
        return d;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         const int da = pinned_degree(a);
                         const int db = pinned_degree(b);
                         if (da != db)
                             return da > db;
                         return a < b;
                     });

    for (auto q : order) {
        std::set<int> taken;
        for (auto n : graph.neighbors(q)) {
            auto pin = problem.pinned.find(n);
            if (pin != problem.pinned.end())
                taken.insert(pin->second);
            auto col = colors.find(n);
            if (col != colors.end())
                taken.insert(col->second);
        }
        int chosen = -1;
        for (int k : preference) {
            if (!taken.count(k)) {
                chosen = k;
                break;
            }
        }
        casq_assert(chosen > 0, "ran out of Walsh colours at qubit q",
                    q, " (maxColor = ", problem.maxColor, ")");
        colors[q] = chosen;
    }
    return colors;
}

} // namespace casq
