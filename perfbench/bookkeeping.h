#ifndef PERFBENCH_BOOKKEEPING_H_
#define PERFBENCH_BOOKKEEPING_H_

// Pure bookkeeping of the online-path benchmark: percentiles, matching
// served reports to the ingest acknowledgement that made them due, failure
// accounting and metric-name validation. Kept free of sockets and threads
// so perfbench_selftest can check it on synthetic timelines.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; NaN when
/// the sample is empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// The highest percentile that still has at least `min_beyond` samples
/// strictly above its rank: with n samples that is rank n - min_beyond
/// (1-based), i.e. percentile 100 * (n - min_beyond) / n.
struct TailValue {
  bool valid = false;  // false when n <= min_beyond
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
TailValue TailPercentile(std::vector<double> values, size_t min_beyond = 10);

/// One served report as the reader first saw it.
struct ReportSighting {
  uint32_t instance = 0;
  int64_t onset_sec = 0;
  int64_t trigger_sec = 0;
  double seen_ms = 0.0;  // wall ms of the first response listing it
};

/// One acknowledged ingest batch: which simulated second its sample
/// closed, and when its 202 arrived.
struct BatchAck {
  uint32_t instance = 0;
  int64_t sample_sec = 0;
  double acked_ms = 0.0;
};

/// Report latency: a report for trigger second t becomes due when the
/// fleet watermark reaches t + delay, and the fleet watermark is the
/// highest sample second delivered by any instance. The report is
/// therefore matched to the earliest-acknowledged batch carrying a sample
/// of second t + delay. Reports whose due second was never acknowledged
/// (the stream ended first) are returned in `unmatched`.
struct ReportLatencies {
  std::vector<double> latency_ms;  // parallel to `matched`
  std::vector<size_t> matched;     // indices into the sightings
  std::vector<size_t> unmatched;
};
ReportLatencies MatchReportsToDue(const std::vector<ReportSighting>& reports,
                                  const std::vector<BatchAck>& acks,
                                  int64_t diagnose_delay_sec);

/// Failed ÷ attempted over the operations expected to succeed. A sender
/// that deliberately exceeds its budget registers its operations with
/// expected_success = false: they are neither attempted nor failed.
class FailureLedger {
 public:
  void Add(std::string_view kind, uint64_t attempted, uint64_t failed,
           bool expected_success = true);
  uint64_t attempted() const;
  uint64_t failed() const;
  double failed_share() const;
  /// kind -> {attempted, failed}, expected-success operations only.
  const std::map<std::string, std::pair<uint64_t, uint64_t>>& by_kind() const {
    return by_kind_;
  }

 private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_kind_;
};

/// A metric name starts with a letter or digit and uses at most 64 of
/// [A-Za-z0-9_.-].
bool IsValidMetricName(std::string_view name);

/// 64-bit FNV-1a, chained: pass the previous digest to extend it.
uint64_t Fnv1a(std::string_view bytes, uint64_t seed = 1469598103934665603ULL);

}  // namespace perfbench

#endif  // PERFBENCH_BOOKKEEPING_H_
