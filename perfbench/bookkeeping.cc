#include "bookkeeping.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TailValue TailPercentile(std::vector<double> values, size_t min_beyond) {
  TailValue tail;
  tail.samples = values.size();
  if (values.size() <= min_beyond) return tail;
  std::sort(values.begin(), values.end());
  const size_t rank = values.size() - min_beyond;  // 1-based
  tail.valid = true;
  tail.value = values[rank - 1];
  tail.beyond = min_beyond;
  tail.percentile =
      100.0 * static_cast<double>(rank) / static_cast<double>(values.size());
  return tail;
}

ReportLatencies MatchReportsToDue(const std::vector<ReportSighting>& reports,
                                  const std::vector<BatchAck>& acks,
                                  int64_t diagnose_delay_sec) {
  std::map<int64_t, double> first_ack_by_sec;
  for (const BatchAck& ack : acks) {
    auto [it, inserted] = first_ack_by_sec.emplace(ack.sample_sec, ack.acked_ms);
    if (!inserted) it->second = std::min(it->second, ack.acked_ms);
  }
  ReportLatencies out;
  for (size_t i = 0; i < reports.size(); ++i) {
    const auto it =
        first_ack_by_sec.find(reports[i].trigger_sec + diagnose_delay_sec);
    if (it == first_ack_by_sec.end()) {
      out.unmatched.push_back(i);
      continue;
    }
    out.matched.push_back(i);
    out.latency_ms.push_back(reports[i].seen_ms - it->second);
  }
  return out;
}

void FailureLedger::Add(std::string_view kind, uint64_t attempted,
                        uint64_t failed, bool expected_success) {
  if (!expected_success) return;
  auto& entry = by_kind_[std::string(kind)];
  entry.first += attempted;
  entry.second += failed;
}

uint64_t FailureLedger::attempted() const {
  uint64_t total = 0;
  for (const auto& [kind, counts] : by_kind_) total += counts.first;
  return total;
}

uint64_t FailureLedger::failed() const {
  uint64_t total = 0;
  for (const auto& [kind, counts] : by_kind_) total += counts.second;
  return total;
}

double FailureLedger::failed_share() const {
  const uint64_t total = attempted();
  return total == 0 ? 0.0
                    : static_cast<double>(failed()) / static_cast<double>(total);
}

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

uint64_t Fnv1a(std::string_view bytes, uint64_t seed) {
  uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace perfbench
