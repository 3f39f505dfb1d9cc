#include "eval/metrics.h"

#include <algorithm>

namespace pinsql::eval {

double MedianOf(std::vector<double> v) {
  if (v.empty()) return -1.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int FirstHitRank(const std::vector<uint64_t>& ranking,
                 const std::unordered_set<uint64_t>& truth) {
  for (size_t i = 0; i < ranking.size(); ++i) {
    if (truth.count(ranking[i]) > 0) return static_cast<int>(i) + 1;
  }
  return 0;
}

void RankAccumulator::Add(int rank) {
  ++cases_;
  if (rank >= 1) {
    reciprocal_sum_ += 1.0 / static_cast<double>(rank);
    if (rank <= 1) ++hits1_;
    if (rank <= 5) ++hits5_;
  }
}

RankMetrics RankAccumulator::Summary() const {
  RankMetrics m;
  m.cases = cases_;
  if (cases_ == 0) return m;
  m.hits_at_1 = 100.0 * static_cast<double>(hits1_) /
                static_cast<double>(cases_);
  m.hits_at_5 = 100.0 * static_cast<double>(hits5_) /
                static_cast<double>(cases_);
  m.mrr = reciprocal_sum_ / static_cast<double>(cases_);
  return m;
}

}  // namespace pinsql::eval
