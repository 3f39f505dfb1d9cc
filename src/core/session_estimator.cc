#include "core/session_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace pinsql::core {

namespace {

/// Overlap of [lo1, hi1) and [lo2, hi2) in ms.
double Overlap(double lo1, double hi1, double lo2, double hi2) {
  const double lo = std::max(lo1, lo2);
  const double hi = std::min(hi1, hi2);
  return std::max(0.0, hi - lo);
}

/// One record as both passes read it: its active interval [lo, hi) in ms
/// and the seconds [first_sec, last_sec] it overlaps inside the window
/// (last_sec < first_sec when it never intersects the window).
struct RecordSpan {
  double lo = 0.0;
  double hi = 0.0;
  int64_t first_sec = 0;
  int64_t last_sec = -1;

  bool empty() const { return last_sec < first_sec; }
};

RecordSpan SpanOf(const QueryLogRecord& q, int64_t ts_sec, int64_t te_sec) {
  RecordSpan span;
  span.lo = static_cast<double>(q.arrival_ms);
  span.hi = span.lo + std::max(q.response_ms, 0.0);
  span.first_sec = std::max(ts_sec, q.arrival_ms / 1000);
  span.last_sec = std::min(
      te_sec - 1, static_cast<int64_t>(std::floor((span.hi - 1e-9) / 1000.0)));
  return span;
}

/// Occupancy of the ms period [b_lo, b_lo + bucket_ms) by `span`.
double Occupancy(const RecordSpan& span, double b_lo, double bucket_ms) {
  return Overlap(span.lo, span.hi, b_lo, b_lo + bucket_ms) / bucket_ms;
}

}  // namespace

SessionEstimate EstimateSessions(std::span<const QueryLogRecord> logs,
                                 const TimeSeries& observed_session,
                                 int64_t ts_sec, int64_t te_sec,
                                 const SessionEstimatorOptions& options,
                                 util::ThreadPool* pool) {
  assert(te_sec > ts_sec);
  const size_t n = static_cast<size_t>(te_sec - ts_sec);
  SessionEstimate out;
  out.total = TimeSeries(ts_sec, 1, n);

  if (options.mode == SessionEstimatorMode::kResponseTime) {
    // Proxy: individual session ~ total response time per second / 1000.
    // Cheap single pass; not worth sharding.
    for (const QueryLogRecord& q : logs) {
      const int64_t sec = q.arrival_ms / 1000;
      if (sec < ts_sec || sec >= te_sec) continue;
      auto [it, inserted] = out.per_template.try_emplace(q.sql_id);
      if (inserted) it->second = TimeSeries(ts_sec, 1, n);
      it->second.AtTime(sec) += q.response_ms / 1000.0;
      out.total.AtTime(sec) += q.response_ms / 1000.0;
    }
    return out;
  }

  const int k = options.mode == SessionEstimatorMode::kBucketed
                    ? std::max(1, options.num_buckets)
                    : 1;
  const size_t kk = static_cast<size_t>(k);
  const double bucket_ms = 1000.0 / static_cast<double>(k);

  // A record overlaps its first and last second partially and every second
  // in between whole: those interior seconds contribute exactly 1 to every
  // bucket, so only the two edge seconds need the overlap math, and the
  // interior goes in as a range-add on a difference array.
  std::vector<RecordSpan> spans(logs.size());
  for (size_t r = 0; r < logs.size(); ++r) {
    spans[r] = SpanOf(logs[r], ts_sec, te_sec);
  }

  // Pass 1: expected active session per (second, bucket). Each task owns a
  // contiguous block of seconds (rows of `expect`) and scans every record
  // for the part of its span inside the block, so rows never race. A cell
  // sums its edge fractions in record order, then adds its whole-second
  // count — the same arithmetic at any block count.
  std::vector<double> expect(n * kk, 0.0);
  const size_t blocks =
      pool == nullptr ? 1
                      : std::min(n, static_cast<size_t>(
                                        std::max(1, pool->num_threads())));
  util::ParallelFor(pool, blocks, [&](size_t blk) {
    const size_t row_lo = n * blk / blocks;
    const size_t row_hi = n * (blk + 1) / blocks;
    const int64_t sec_lo = ts_sec + static_cast<int64_t>(row_lo);
    const int64_t sec_hi = ts_sec + static_cast<int64_t>(row_hi);
    const auto add_edge = [&](const RecordSpan& span, int64_t sec) {
      const size_t row = static_cast<size_t>(sec - ts_sec) * kk;
      const double sec_ms = static_cast<double>(sec) * 1000.0;
      // Only buckets the record touches can have non-zero occupancy; the
      // range is widened by one bucket each side so rounding in the index
      // math never skips one (the p > 0 test still decides).
      const double lo_ms = std::max(span.lo, sec_ms) - sec_ms;
      const double hi_ms = std::min(span.hi, sec_ms + 1000.0) - sec_ms;
      const int b_first =
          std::max(0, static_cast<int>(lo_ms / bucket_ms) - 1);
      const int b_end = std::min(k, static_cast<int>(hi_ms / bucket_ms) + 2);
      for (int b = b_first; b < b_end; ++b) {
        const double p = Occupancy(span, sec_ms + bucket_ms * b, bucket_ms);
        if (p > 0.0) expect[row + static_cast<size_t>(b)] += p;
      }
    };
    // whole[i] - whole[i-1]: records covering second sec_lo + i entirely.
    std::vector<int32_t> whole(row_hi - row_lo + 1, 0);
    for (const RecordSpan& span : spans) {
      if (span.empty() || span.last_sec < sec_lo || span.first_sec >= sec_hi) {
        continue;
      }
      if (span.first_sec >= sec_lo) add_edge(span, span.first_sec);
      if (span.last_sec > span.first_sec && span.last_sec < sec_hi) {
        add_edge(span, span.last_sec);
      }
      const int64_t in_lo = std::max(span.first_sec + 1, sec_lo);
      const int64_t in_hi = std::min(span.last_sec, sec_hi);
      if (in_lo < in_hi) {
        ++whole[static_cast<size_t>(in_lo - sec_lo)];
        --whole[static_cast<size_t>(in_hi - sec_lo)];
      }
    }
    int32_t covering = 0;
    for (size_t i = row_lo; i < row_hi; ++i) {
      covering += whole[i - row_lo];
      if (covering == 0) continue;
      const double c = static_cast<double>(covering);
      for (size_t b = 0; b < kk; ++b) expect[i * kk + b] += c;
    }
  });

  // Bucket selection: sel_t = argmin_b |observed_t - E[session_b]|.
  std::vector<int> sel(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const int64_t sec = ts_sec + static_cast<int64_t>(i);
    const size_t row = i * kk;
    double observed =
        observed_session.Covers(sec) ? observed_session.AtTime(sec) : 0.0;
    if (!std::isfinite(observed)) {
      // Monitoring gap: no SHOW STATUS sample to localize the offset
      // against this second. Fall back to the expectation over the whole
      // second (the no-bucket estimator's behaviour), which selects the
      // bucket closest to the second's mean expectation.
      double mean = 0.0;
      for (size_t b = 0; b < kk; ++b) mean += expect[row + b];
      observed = mean / static_cast<double>(k);
    }
    int best = 0;
    double best_err = std::fabs(observed - expect[row]);
    for (int b = 1; b < k; ++b) {
      const double err =
          std::fabs(observed - expect[row + static_cast<size_t>(b)]);
      if (err < best_err) {
        best_err = err;
        best = b;
      }
    }
    sel[i] = best;
    out.total[i] = expect[row + static_cast<size_t>(best)];
  }

  // Group the window's records by template, templates in first-appearance
  // order and records in input order within each (a counting sort into one
  // flat permutation). The per_template map entries are created in that
  // first-appearance order, so the map layout (and every downstream
  // iteration order) matches the single-threaded run.
  std::unordered_map<uint64_t, uint32_t> tpl_index;
  std::vector<uint64_t> tpl_ids;
  std::vector<uint32_t> rec_tpl(logs.size());
  std::vector<size_t> tpl_begin;
  for (size_t r = 0; r < logs.size(); ++r) {
    if (spans[r].empty()) continue;
    auto [it, inserted] = tpl_index.try_emplace(
        logs[r].sql_id, static_cast<uint32_t>(tpl_ids.size()));
    if (inserted) {
      tpl_ids.push_back(logs[r].sql_id);
      tpl_begin.push_back(0);
    }
    rec_tpl[r] = it->second;
    ++tpl_begin[it->second];
  }
  const size_t num_tpl = tpl_ids.size();
  size_t offset = 0;
  for (size_t& begin : tpl_begin) {
    const size_t count = begin;
    begin = offset;
    offset += count;
  }
  tpl_begin.push_back(offset);
  std::vector<uint32_t> by_tpl(offset);
  {
    std::vector<size_t> fill(tpl_begin.begin(), tpl_begin.end() - 1);
    for (size_t r = 0; r < logs.size(); ++r) {
      if (!spans[r].empty()) {
        by_tpl[fill[rec_tpl[r]]++] = static_cast<uint32_t>(r);
      }
    }
  }
  std::vector<TimeSeries*> tpl_series(num_tpl);
  for (size_t t = 0; t < num_tpl; ++t) {
    auto [it, inserted] =
        out.per_template.try_emplace(tpl_ids[t], TimeSeries(ts_sec, 1, n));
    tpl_series[t] = &it->second;
  }

  // Pass 2: per-template sessions using the selected buckets. Each task
  // owns one template's series: edge seconds take the overlap with the
  // selected bucket, in record order; interior seconds cover the selected
  // bucket whole and go through the template's difference array.
  util::ParallelFor(pool, num_tpl, [&](size_t t) {
    TimeSeries& series = *tpl_series[t];
    const auto add_edge = [&](const RecordSpan& span, int64_t sec) {
      const size_t i = static_cast<size_t>(sec - ts_sec);
      const double b_lo =
          static_cast<double>(sec) * 1000.0 + bucket_ms * sel[i];
      const double p = Occupancy(span, b_lo, bucket_ms);
      if (p > 0.0) series[i] += p;
    };
    std::vector<int32_t> whole;
    for (size_t j = tpl_begin[t]; j < tpl_begin[t + 1]; ++j) {
      const RecordSpan& span = spans[by_tpl[j]];
      add_edge(span, span.first_sec);
      if (span.last_sec > span.first_sec) add_edge(span, span.last_sec);
      if (span.last_sec - span.first_sec >= 2) {
        if (whole.empty()) whole.assign(n + 1, 0);
        ++whole[static_cast<size_t>(span.first_sec + 1 - ts_sec)];
        --whole[static_cast<size_t>(span.last_sec - ts_sec)];
      }
    }
    if (whole.empty()) return;
    int32_t covering = 0;
    for (size_t i = 0; i < n; ++i) {
      covering += whole[i];
      if (covering != 0) series[i] += static_cast<double>(covering);
    }
  });
  return out;
}

}  // namespace pinsql::core
