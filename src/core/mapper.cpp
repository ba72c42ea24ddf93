#include "core/mapper.hpp"

#include "util/contracts.hpp"

namespace spcd::core {

std::uint32_t count_moves(const sim::Placement& current,
                          const sim::Placement& target) {
  SPCD_EXPECTS(current.size() == target.size());
  std::uint32_t moves = 0;
  for (std::size_t tid = 0; tid < current.size(); ++tid) {
    if (current[tid] != target[tid]) ++moves;
  }
  return moves;
}

double proximity_weight(arch::Proximity p) {
  // Relative cost of one unit of communication at each proximity,
  // approximating the latency ratios of the default machine.
  switch (p) {
    case arch::Proximity::kSameCore: return 1.0;
    case arch::Proximity::kSameSocket: return 2.5;
    case arch::Proximity::kCrossSocket: return 7.0;
    default: return 0.0;
  }
}

double placement_comm_cost(const CommMatrix& matrix,
                           const arch::Topology& topology,
                           const sim::Placement& placement) {
  SPCD_EXPECTS(placement.size() == matrix.size());
  double cost = 0.0;
  for (std::uint32_t i = 0; i < matrix.size(); ++i) {
    for (std::uint32_t j = i + 1; j < matrix.size(); ++j) {
      const auto amount = static_cast<double>(matrix.at(i, j));
      if (amount == 0.0) continue;
      cost += amount *
              proximity_weight(topology.proximity(placement[i], placement[j]));
    }
  }
  return cost;
}

}  // namespace spcd::core
