#ifndef PINSQL_EVAL_METRICS_H_
#define PINSQL_EVAL_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace pinsql::eval {

/// Rank (1-based) of the first ranked item present in `truth`; 0 when no
/// truth item appears in the ranking. Mirrors the paper's "the correctly
/// found template is the first in the rank list that appears in the
/// annotated set".
int FirstHitRank(const std::vector<uint64_t>& ranking,
                 const std::unordered_set<uint64_t>& truth);

/// Median of `v`; -1 when empty.
double MedianOf(std::vector<double> v);

/// Aggregated ranking metrics over a set of cases.
struct RankMetrics {
  double hits_at_1 = 0.0;  // percentage
  double hits_at_5 = 0.0;  // percentage
  double mrr = 0.0;
  size_t cases = 0;
};

/// Accumulates first-hit ranks across cases into Hits@1/Hits@5/MRR.
class RankAccumulator {
 public:
  /// `rank` is 1-based; 0 = miss.
  void Add(int rank);
  RankMetrics Summary() const;

 private:
  size_t cases_ = 0;
  size_t hits1_ = 0;
  size_t hits5_ = 0;
  double reciprocal_sum_ = 0.0;
};

}  // namespace pinsql::eval

#endif  // PINSQL_EVAL_METRICS_H_
