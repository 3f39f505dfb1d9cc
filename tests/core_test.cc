#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/diagnoser.h"
#include "core/hsql.h"
#include "core/rsql.h"
#include "core/session_estimator.h"
#include "logstore/log_store.h"
#include "obs/metrics.h"
#include "ts/stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pinsql::core {
namespace {

QueryLogRecord Rec(int64_t arrival_ms, double response_ms, uint64_t sql_id) {
  QueryLogRecord r;
  r.arrival_ms = arrival_ms;
  r.response_ms = response_ms;
  r.sql_id = sql_id;
  return r;
}

// ------------------------------------------------------ Session estimator

TEST(SessionEstimatorTest, SingleQueryProbability) {
  // One query active for 500 ms inside one second: whole-second
  // expectation is 0.5 (paper's P(observed) formula).
  std::vector<QueryLogRecord> logs = {Rec(100'250, 500.0, 1)};
  TimeSeries observed(100, 1, std::vector<double>{0.5});
  SessionEstimatorOptions options;
  options.mode = SessionEstimatorMode::kNoBuckets;
  const SessionEstimate est = EstimateSessions(logs, observed, 100, 101,
                                               options);
  EXPECT_NEAR(est.total[0], 0.5, 1e-9);
  EXPECT_NEAR(est.per_template.at(1)[0], 0.5, 1e-9);
}

TEST(SessionEstimatorTest, QuerySpanningSecondsContributesToEach) {
  std::vector<QueryLogRecord> logs = {Rec(100'500, 2000.0, 1)};
  TimeSeries observed(100, 1, std::vector<double>{1, 1, 1});
  SessionEstimatorOptions options;
  options.mode = SessionEstimatorMode::kNoBuckets;
  const SessionEstimate est = EstimateSessions(logs, observed, 100, 103,
                                               options);
  EXPECT_NEAR(est.total[0], 0.5, 1e-9);
  EXPECT_NEAR(est.total[1], 1.0, 1e-9);
  EXPECT_NEAR(est.total[2], 0.5, 1e-9);
}

TEST(SessionEstimatorTest, BucketedSelectsOffsetMatchingObservation) {
  // A query active only in the first half of the second; the monitor
  // "observed" 1 -> the estimator must pick an early bucket, giving the
  // template a session of ~1 rather than the 0.5 whole-second average.
  std::vector<QueryLogRecord> logs = {Rec(100'000, 500.0, 1)};
  TimeSeries observed(100, 1, std::vector<double>{1.0});
  SessionEstimatorOptions options;
  options.mode = SessionEstimatorMode::kBucketed;
  options.num_buckets = 10;
  const SessionEstimate est = EstimateSessions(logs, observed, 100, 101,
                                               options);
  EXPECT_NEAR(est.per_template.at(1)[0], 1.0, 1e-9);

  // Monitor observed 0 -> a late bucket is chosen instead.
  TimeSeries observed_zero(100, 1, std::vector<double>{0.0});
  const SessionEstimate est0 = EstimateSessions(logs, observed_zero, 100,
                                                101, options);
  EXPECT_NEAR(est0.per_template.at(1)[0], 0.0, 1e-9);
}

TEST(SessionEstimatorTest, ResponseTimeProxyDividesBy1000) {
  std::vector<QueryLogRecord> logs = {Rec(100'100, 250.0, 1),
                                      Rec(100'500, 750.0, 1)};
  TimeSeries observed(100, 1, std::vector<double>{0.0});
  SessionEstimatorOptions options;
  options.mode = SessionEstimatorMode::kResponseTime;
  const SessionEstimate est = EstimateSessions(logs, observed, 100, 101,
                                               options);
  EXPECT_NEAR(est.per_template.at(1)[0], 1.0, 1e-9);
  EXPECT_NEAR(est.total[0], 1.0, 1e-9);
}

TEST(SessionEstimatorTest, PerTemplateSumsToTotal) {
  Rng rng(3);
  std::vector<QueryLogRecord> logs;
  for (int i = 0; i < 2000; ++i) {
    logs.push_back(Rec(100'000 + rng.UniformInt(0, 29'999),
                       rng.Uniform(1.0, 400.0),
                       static_cast<uint64_t>(rng.UniformInt(1, 20))));
  }
  TimeSeries observed(100, 1, 30);
  for (size_t i = 0; i < observed.size(); ++i) {
    observed[i] = rng.Uniform(0.0, 10.0);
  }
  SessionEstimatorOptions options;
  const SessionEstimate est = EstimateSessions(logs, observed, 100, 130,
                                               options);
  TimeSeries sum(100, 1, 30);
  for (const auto& [id, series] : est.per_template) {
    sum.AddInPlace(series);
  }
  for (size_t i = 0; i < sum.size(); ++i) {
    EXPECT_NEAR(sum[i], est.total[i], 1e-6);
  }
}

TEST(SessionEstimatorTest, BucketedBeatsNoBucketsOnSyntheticTruth) {
  // Monte-Carlo version of Table III's ordering: simulate queries with a
  // hidden per-second sampling instant; the bucketed estimator must track
  // the sampled truth more closely than the whole-second expectation.
  Rng rng(11);
  const int64_t n_sec = 120;
  std::vector<QueryLogRecord> logs;
  for (int64_t sec = 0; sec < n_sec; ++sec) {
    const int queries = static_cast<int>(rng.UniformInt(20, 60));
    for (int q = 0; q < queries; ++q) {
      logs.push_back(Rec(sec * 1000 + rng.UniformInt(0, 999),
                         rng.Uniform(5.0, 900.0),
                         static_cast<uint64_t>(rng.UniformInt(1, 10))));
    }
  }
  // Hidden sampling instants + point-in-time truth.
  TimeSeries observed(0, 1, static_cast<size_t>(n_sec));
  for (int64_t sec = 0; sec < n_sec; ++sec) {
    const double t3 = static_cast<double>(sec) * 1000.0 +
                      rng.Uniform(0.0, 1000.0);
    int active = 0;
    for (const auto& r : logs) {
      const double lo = static_cast<double>(r.arrival_ms);
      if (lo <= t3 && t3 < lo + r.response_ms) ++active;
    }
    observed[static_cast<size_t>(sec)] = active;
  }
  SessionEstimatorOptions bucketed;
  bucketed.mode = SessionEstimatorMode::kBucketed;
  SessionEstimatorOptions plain;
  plain.mode = SessionEstimatorMode::kNoBuckets;
  const SessionEstimate eb = EstimateSessions(logs, observed, 0, n_sec,
                                              bucketed);
  const SessionEstimate ep = EstimateSessions(logs, observed, 0, n_sec,
                                              plain);
  const double mse_b = MeanSquaredError(eb.total.values(),
                                        observed.values());
  const double mse_p = MeanSquaredError(ep.total.values(),
                                        observed.values());
  EXPECT_LT(mse_b, mse_p);
}

TEST(SessionEstimatorTest, EmptyLogsYieldZeroes) {
  TimeSeries observed(0, 1, std::vector<double>{5.0, 5.0});
  const SessionEstimate est = EstimateSessions(
      std::vector<QueryLogRecord>{}, observed, 0, 2,
      SessionEstimatorOptions{});
  EXPECT_DOUBLE_EQ(est.total.Sum(), 0.0);
  EXPECT_TRUE(est.per_template.empty());
}

// ------------------------------------- Session estimator: differential

/// The per-second × K estimator the linear one replaced, kept as the
/// reference: every record adds K overlap fractions to every second it
/// spans, in record order. Also reports, per second, whether its two best
/// bucket errors tie within 1e-9 (either bucket is then a valid pick).
struct ReferenceEstimate {
  TimeSeries total;
  std::unordered_map<uint64_t, TimeSeries> per_template;
  std::vector<bool> tie;
};

ReferenceEstimate ReferenceEstimateSessions(
    const std::vector<QueryLogRecord>& logs, const TimeSeries& observed_session,
    int64_t ts_sec, int64_t te_sec, int k) {
  const size_t n = static_cast<size_t>(te_sec - ts_sec);
  const double bucket_ms = 1000.0 / static_cast<double>(k);
  const auto overlap = [](double lo1, double hi1, double lo2, double hi2) {
    return std::max(0.0, std::min(hi1, hi2) - std::max(lo1, lo2));
  };
  struct Span {
    int64_t first_sec;
    int64_t last_sec;
  };
  std::vector<Span> spans(logs.size());
  std::vector<std::vector<size_t>> records_by_sec(n);
  for (size_t r = 0; r < logs.size(); ++r) {
    const double hi = static_cast<double>(logs[r].arrival_ms) +
                      std::max(logs[r].response_ms, 0.0);
    spans[r].first_sec = std::max(ts_sec, logs[r].arrival_ms / 1000);
    spans[r].last_sec = std::min(
        te_sec - 1, static_cast<int64_t>(std::floor((hi - 1e-9) / 1000.0)));
    for (int64_t sec = spans[r].first_sec; sec <= spans[r].last_sec; ++sec) {
      records_by_sec[static_cast<size_t>(sec - ts_sec)].push_back(r);
    }
  }
  const auto p_of = [&](const QueryLogRecord& q, double b_lo) {
    const double lo = static_cast<double>(q.arrival_ms);
    const double hi = lo + std::max(q.response_ms, 0.0);
    return overlap(lo, hi, b_lo, b_lo + bucket_ms) / bucket_ms;
  };
  std::vector<double> expect(n * static_cast<size_t>(k), 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double sec_ms =
        static_cast<double>(ts_sec + static_cast<int64_t>(i)) * 1000.0;
    double* row = &expect[i * static_cast<size_t>(k)];
    for (const size_t r : records_by_sec[i]) {
      for (int b = 0; b < k; ++b) {
        const double p = p_of(logs[r], sec_ms + bucket_ms * b);
        if (p > 0.0) row[b] += p;
      }
    }
  }
  ReferenceEstimate out;
  out.total = TimeSeries(ts_sec, 1, n);
  out.tie.assign(n, false);
  std::vector<int> sel(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const int64_t sec = ts_sec + static_cast<int64_t>(i);
    const double* row = &expect[i * static_cast<size_t>(k)];
    double observed =
        observed_session.Covers(sec) ? observed_session.AtTime(sec) : 0.0;
    if (!std::isfinite(observed)) {
      double mean = 0.0;
      for (int b = 0; b < k; ++b) mean += row[b];
      observed = mean / static_cast<double>(k);
    }
    std::vector<double> err(static_cast<size_t>(k));
    for (int b = 0; b < k; ++b) {
      err[static_cast<size_t>(b)] = std::fabs(observed - row[b]);
    }
    const int best = static_cast<int>(
        std::min_element(err.begin(), err.end()) - err.begin());
    for (int b = 0; b < k; ++b) {
      if (b != best && std::fabs(err[static_cast<size_t>(b)] -
                                 err[static_cast<size_t>(best)]) <= 1e-9) {
        out.tie[i] = true;
      }
    }
    sel[i] = best;
    out.total[i] = row[best];
  }
  for (size_t r = 0; r < logs.size(); ++r) {
    if (spans[r].last_sec < spans[r].first_sec) continue;
    auto [it, inserted] = out.per_template.try_emplace(
        logs[r].sql_id, TimeSeries(ts_sec, 1, n));
    for (int64_t sec = spans[r].first_sec; sec <= spans[r].last_sec; ++sec) {
      const size_t i = static_cast<size_t>(sec - ts_sec);
      const double p = p_of(
          logs[r], static_cast<double>(sec) * 1000.0 + bucket_ms * sel[i]);
      if (p > 0.0) it->second[i] += p;
    }
  }
  return out;
}

void ExpectNear1e9(double want, double got, const std::string& where) {
  EXPECT_LE(std::fabs(want - got), 1e-9 * std::max(1.0, std::fabs(want)))
      << where << ": want " << want << " got " << got;
}

void ExpectBitIdentical(const SessionEstimate& a, const SessionEstimate& b) {
  ASSERT_EQ(a.total.values(), b.total.values());
  ASSERT_EQ(a.per_template.size(), b.per_template.size());
  for (const auto& [id, series] : a.per_template) {
    ASSERT_EQ(b.per_template.count(id), 1u) << id;
    EXPECT_EQ(series.values(), b.per_template.at(id).values()) << id;
  }
}

TEST(SessionEstimatorTest, LinearEstimatorMatchesPerSecondReference) {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (const int threads : {1, 2, 4, 8}) {
    pools.push_back(std::make_unique<util::ThreadPool>(threads));
  }
  size_t ties = 0;
  size_t seconds = 0;
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const int64_t ts : {int64_t{-25}, int64_t{37}}) {
      const int64_t te = ts + 40;
      Rng rng(seed * 1000 + static_cast<uint64_t>(ts + 100));
      std::vector<QueryLogRecord> logs;
      for (int i = 0; i < 400; ++i) {
        int64_t arrival = rng.UniformInt((ts - 30) * 1000, te * 1000 - 1);
        const int64_t edge = rng.UniformInt(0, 19);
        if (edge == 0) arrival = te * 1000;  // arrives exactly at te
        if (edge == 1) arrival = ts * 1000;  // exactly at ts
        if (edge == 2) arrival = rng.UniformInt(ts, te) * 1000;  // on a second
        double response = 0.0;
        switch (rng.UniformInt(0, 5)) {
          case 0: response = 0.0; break;
          case 1: response = -rng.Uniform(0.0, 500.0); break;
          case 2: response = rng.Uniform(0.0, 1000.0); break;
          case 3:
            response = 1000.0 * static_cast<double>(rng.UniformInt(1, 4));
            break;
          default: response = rng.Uniform(1000.0, 25000.0); break;  // lock wait
        }
        logs.push_back(Rec(arrival, response,
                           1 + static_cast<uint64_t>(rng.UniformInt(0, 6))));
      }
      std::sort(logs.begin(), logs.end(),
                [](const QueryLogRecord& a, const QueryLogRecord& b) {
                  return a.arrival_ms < b.arrival_ms;
                });
      TimeSeries observed(ts, 1, static_cast<size_t>(te - ts));
      for (size_t i = 0; i < observed.size(); ++i) {
        observed[i] = rng.UniformInt(0, 9) == 0
                          ? std::numeric_limits<double>::quiet_NaN()
                          : rng.Uniform(0.0, 30.0);
      }
      for (const int k : {1, 3, 10}) {
        const std::string label = "seed=" + std::to_string(seed) +
                                  " ts=" + std::to_string(ts) +
                                  " K=" + std::to_string(k);
        SCOPED_TRACE(label);
        SessionEstimatorOptions options;
        options.num_buckets = k;
        const ReferenceEstimate want =
            ReferenceEstimateSessions(logs, observed, ts, te, k);
        const SessionEstimate got =
            EstimateSessions(logs, observed, ts, te, options);
        // The same bucket is selected wherever the reference's pick is not
        // a tie: the total is that bucket's expectation, and every
        // template's value is its occupancy of that bucket.
        ASSERT_EQ(got.per_template.size(), want.per_template.size());
        for (size_t i = 0; i < got.total.size(); ++i) {
          ++seconds;
          if (want.tie[i]) {
            ++ties;
            continue;
          }
          const std::string at =
              "sec " + std::to_string(ts + static_cast<int64_t>(i));
          ExpectNear1e9(want.total[i], got.total[i], at + " total");
          for (const auto& [id, series] : want.per_template) {
            ASSERT_EQ(got.per_template.count(id), 1u) << id;
            ExpectNear1e9(series[i], got.per_template.at(id)[i],
                          at + " sql " + std::to_string(id));
          }
        }
        for (const auto& pool : pools) {
          SCOPED_TRACE("threads=" + std::to_string(pool->num_threads()));
          ExpectBitIdentical(got, EstimateSessions(logs, observed, ts, te,
                                                   options, pool.get()));
        }
      }
    }
  }
  // Not vacuous: ties are the exception.
  EXPECT_LT(ties * 4, seconds);
}

// ---------------------------------------------------------------- H-SQL

/// Builds a synthetic anomaly scene: the instance session is flat except
/// for a plateau during [as, ae); `shape` controls each template's series.
struct Scene {
  TimeSeries session;
  std::unordered_map<uint64_t, TimeSeries> templates;
  int64_t as = 60;
  int64_t ae = 120;
};

Scene MakeScene() {
  Scene scene;
  const size_t n = 180;
  scene.session = TimeSeries(0, 1, n);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) {
    const bool anomalous = i >= 60 && i < 120;
    scene.session[i] = (anomalous ? 40.0 : 8.0) + rng.Normal(0.0, 0.4);
  }
  // Template 1: tracks the anomaly with large scale (the H-SQL).
  TimeSeries hsql(0, 1, n);
  // Template 2: correlates but tiny scale.
  TimeSeries tiny(0, 1, n);
  // Template 3: large stable traffic, no anomaly correlation.
  TimeSeries stable(0, 1, n);
  for (size_t i = 0; i < n; ++i) {
    const bool anomalous = i >= 60 && i < 120;
    hsql[i] = (anomalous ? 30.0 : 2.0) + rng.Normal(0.0, 0.3);
    tiny[i] = (anomalous ? 0.4 : 0.05) + rng.Normal(0.0, 0.01);
    stable[i] = 5.0 + rng.Normal(0.0, 0.3);
  }
  scene.templates[1] = std::move(hsql);
  scene.templates[2] = std::move(tiny);
  scene.templates[3] = std::move(stable);
  return scene;
}

TEST(HsqlTest, RanksTrueHighImpactFirst) {
  const Scene scene = MakeScene();
  const auto scores = RankHighImpactSqls(scene.templates, scene.session,
                                         scene.as, scene.ae, HsqlOptions{});
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_EQ(scores[0].sql_id, 1u);
}

TEST(HsqlTest, ScoresAreBounded) {
  const Scene scene = MakeScene();
  const auto scores = RankHighImpactSqls(scene.templates, scene.session,
                                         scene.as, scene.ae, HsqlOptions{});
  for (const auto& s : scores) {
    EXPECT_GE(s.trend, -1.0);
    EXPECT_LE(s.trend, 1.0);
    EXPECT_GE(s.scale, -1.0);
    EXPECT_LE(s.scale, 1.0);
    EXPECT_GE(s.scale_trend, -1.0);
    EXPECT_LE(s.scale_trend, 1.0);
    EXPECT_GE(s.impact, -3.0);
    EXPECT_LE(s.impact, 3.0);
  }
}

TEST(HsqlTest, TrendScoreSeparatesCorrelatedFromStable) {
  const Scene scene = MakeScene();
  const auto scores = RankHighImpactSqls(scene.templates, scene.session,
                                         scene.as, scene.ae, HsqlOptions{});
  double trend_hsql = 0.0;
  double trend_stable = 0.0;
  for (const auto& s : scores) {
    if (s.sql_id == 1) trend_hsql = s.trend;
    if (s.sql_id == 3) trend_stable = s.trend;
  }
  EXPECT_GT(trend_hsql, 0.9);
  EXPECT_LT(std::fabs(trend_stable), 0.5);
}

TEST(HsqlTest, ScaleLevelIsMinMaxNormalized) {
  const Scene scene = MakeScene();
  const auto scores = RankHighImpactSqls(scene.templates, scene.session,
                                         scene.as, scene.ae, HsqlOptions{});
  double max_scale = -2.0;
  double min_scale = 2.0;
  for (const auto& s : scores) {
    max_scale = std::max(max_scale, s.scale);
    min_scale = std::min(min_scale, s.scale);
  }
  EXPECT_DOUBLE_EQ(max_scale, 1.0);   // largest template
  EXPECT_DOUBLE_EQ(min_scale, -1.0);  // smallest template
}

TEST(HsqlTest, AblationTogglesChangeScores) {
  const Scene scene = MakeScene();
  HsqlOptions full;
  HsqlOptions no_trend;
  no_trend.use_trend = false;
  HsqlOptions no_weight;
  no_weight.use_weighted_final = false;
  const auto s_full = RankHighImpactSqls(scene.templates, scene.session,
                                         scene.as, scene.ae, full);
  const auto s_no_trend = RankHighImpactSqls(scene.templates, scene.session,
                                             scene.as, scene.ae, no_trend);
  const auto s_no_weight = RankHighImpactSqls(
      scene.templates, scene.session, scene.as, scene.ae, no_weight);
  EXPECT_NE(s_full[0].impact, s_no_trend[0].impact);
  EXPECT_NE(s_full[0].impact, s_no_weight[0].impact);
}

TEST(HsqlTest, EmptyInputs) {
  const TimeSeries session(0, 1, 10);
  const auto scores = RankHighImpactSqls({}, session, 2, 8, HsqlOptions{});
  EXPECT_TRUE(scores.empty());
}

// ---------------------------------------------------------------- R-SQL

TEST(MapHistoryProviderTest, PutAndLookup) {
  MapHistoryProvider provider;
  provider.Put(1, 3, TimeSeries(0, 1, 5));
  EXPECT_NE(provider.ExecutionHistory(1, 3), nullptr);
  EXPECT_EQ(provider.ExecutionHistory(1, 1), nullptr);
  EXPECT_EQ(provider.ExecutionHistory(2, 3), nullptr);
}

/// R-SQL scene: template 10 is the root cause (bursty #execution during
/// the anomaly, no history anomaly), templates 20/21 are affected H-SQLs
/// (stable #execution, inflated sessions), template 30 is background.
struct RsqlScene {
  TemplateMetricsStore metrics{0, 180};
  std::unordered_map<uint64_t, TimeSeries> sessions;
  TimeSeries session{0, 1, 180};
  MapHistoryProvider history;
  std::vector<HsqlScore> hsql;
  int64_t as = 60;
  int64_t ae = 120;
};

RsqlScene MakeRsqlScene() {
  RsqlScene scene;
  Rng rng(9);
  auto add_template = [&](uint64_t id, double base_qps, double anomaly_qps,
                          double session_base, double session_anomaly) {
    TimeSeries session_series(0, 1, 180);
    for (int64_t t = 0; t < 180; ++t) {
      const bool anomalous = t >= scene.as && t < scene.ae;
      const double qps = anomalous ? anomaly_qps : base_qps;
      const int64_t count = rng.Poisson(qps);
      for (int64_t k = 0; k < count; ++k) {
        QueryLogRecord rec;
        rec.arrival_ms = t * 1000 + rng.UniformInt(0, 999);
        rec.sql_id = id;
        rec.response_ms = 10.0;
        rec.examined_rows = 100;
        scene.metrics.Accumulate(rec);
      }
      session_series.AtTime(t) =
          (anomalous ? session_anomaly : session_base) +
          rng.Normal(0.0, 0.05);
    }
    scene.sessions[id] = session_series;
    // History windows: baseline traffic, no anomaly.
    for (int days : {1, 3, 7}) {
      TimeSeries h(0, 1, 180);
      for (int64_t t = 0; t < 180; ++t) {
        h.AtTime(t) = static_cast<double>(rng.Poisson(base_qps));
      }
      scene.history.Put(id, days, std::move(h));
    }
  };
  add_template(10, 2.0, 25.0, 0.1, 1.5);    // root cause: bursty
  add_template(20, 20.0, 20.0, 2.0, 25.0);  // affected H-SQL
  add_template(21, 15.0, 15.0, 1.5, 18.0);  // affected H-SQL
  add_template(30, 10.0, 10.0, 1.0, 1.0);   // unaffected background

  for (int64_t t = 0; t < 180; ++t) {
    double total = 0.0;
    for (const auto& [id, series] : scene.sessions) {
      total += series.AtTime(t);
    }
    scene.session.AtTime(t) = total;
  }
  // H-SQL impact ranking: the affected templates on top.
  scene.hsql = {{20, 2.0, 0, 0, 0},
                {21, 1.8, 0, 0, 0},
                {10, 0.7, 0, 0, 0},
                {30, -0.5, 0, 0, 0}};
  return scene;
}

RsqlOptions SceneOptions() {
  RsqlOptions options;
  options.cluster_interval_sec = 10;
  options.verify_interval_sec = 10;
  return options;
}

TEST(RsqlTest, PinpointsBurstyRootCause) {
  RsqlScene scene = MakeRsqlScene();
  const RsqlResult result = IdentifyRootCauseSqls(
      scene.metrics, scene.sessions, scene.session, {}, scene.hsql,
      &scene.history, scene.as, scene.ae, SceneOptions());
  ASSERT_FALSE(result.ranking.empty());
  EXPECT_EQ(result.ranking[0], 10u);
}

TEST(RsqlTest, StableTemplatesFailVerification) {
  RsqlScene scene = MakeRsqlScene();
  const RsqlResult result = IdentifyRootCauseSqls(
      scene.metrics, scene.sessions, scene.session, {}, scene.hsql,
      &scene.history, scene.as, scene.ae, SceneOptions());
  for (uint64_t id : result.verified) {
    EXPECT_NE(id, 20u);
    EXPECT_NE(id, 21u);
    EXPECT_NE(id, 30u);
  }
}

TEST(RsqlTest, TemplateWithAnomalousHistoryRejected) {
  RsqlScene scene = MakeRsqlScene();
  // Rewrite template 10's 3-day-ago history to contain the same burst in
  // the relative anomaly period: rule (ii) must now reject it.
  TimeSeries h(0, 1, 180);
  Rng rng(13);
  for (int64_t t = 0; t < 180; ++t) {
    h.AtTime(t) = static_cast<double>(
        rng.Poisson(t >= scene.as && t < scene.ae ? 25.0 : 2.0));
  }
  scene.history.Put(10, 3, std::move(h));
  const RsqlResult result = IdentifyRootCauseSqls(
      scene.metrics, scene.sessions, scene.session, {}, scene.hsql,
      &scene.history, scene.as, scene.ae, SceneOptions());
  for (uint64_t id : result.verified) EXPECT_NE(id, 10u);
}

TEST(RsqlTest, NewTemplatePassesWithoutHistory) {
  RsqlScene scene = MakeRsqlScene();
  // Drop all history for the root cause: a brand-new template.
  MapHistoryProvider fresh;
  for (uint64_t id : {20u, 21u, 30u}) {
    for (int days : {1, 3, 7}) {
      const TimeSeries* h = scene.history.ExecutionHistory(id, days);
      if (h != nullptr) fresh.Put(id, days, *h);
    }
  }
  const RsqlResult result = IdentifyRootCauseSqls(
      scene.metrics, scene.sessions, scene.session, {}, scene.hsql, &fresh,
      scene.as, scene.ae, SceneOptions());
  ASSERT_FALSE(result.ranking.empty());
  EXPECT_EQ(result.ranking[0], 10u);
}

TEST(RsqlTest, DisablingHistoryVerificationKeepsStableCandidates) {
  RsqlScene scene = MakeRsqlScene();
  RsqlOptions options = SceneOptions();
  options.use_history_verification = false;
  const RsqlResult result = IdentifyRootCauseSqls(
      scene.metrics, scene.sessions, scene.session, {}, scene.hsql,
      &scene.history, scene.as, scene.ae, options);
  // Without verification the affected templates stay in the ranking.
  bool has_affected = false;
  for (uint64_t id : result.ranking) {
    if (id == 20 || id == 21) has_affected = true;
  }
  EXPECT_TRUE(has_affected);
}

TEST(RsqlTest, FixedTopClusterAblation) {
  RsqlScene scene = MakeRsqlScene();
  RsqlOptions options = SceneOptions();
  options.use_cumulative_threshold = false;
  const RsqlResult result = IdentifyRootCauseSqls(
      scene.metrics, scene.sessions, scene.session, {}, scene.hsql,
      &scene.history, scene.as, scene.ae, options);
  EXPECT_EQ(result.selected_clusters.size(), 1u);
}

TEST(RsqlTest, MetricHelperNodesMergeClusters) {
  // Two templates whose exec trends correlate only via a shared metric
  // node must land in one cluster when helper nodes are on.
  TemplateMetricsStore metrics(0, 100);
  Rng rng(17);
  TimeSeries helper(0, 1, 100);
  for (int64_t t = 0; t < 100; ++t) {
    const double level = t < 50 ? 5.0 : 40.0;
    // Template 1 follows `level` exactly; template 2 follows it with a
    // large offset+scale (still correlates with the helper).
    for (int k = 0; k < static_cast<int>(level); ++k) {
      QueryLogRecord rec;
      rec.arrival_ms = t * 1000 + rng.UniformInt(0, 999);
      rec.sql_id = 1;
      rec.response_ms = 1.0;
      metrics.Accumulate(rec);
    }
    for (int k = 0; k < static_cast<int>(3 * level + 10); ++k) {
      QueryLogRecord rec;
      rec.arrival_ms = t * 1000 + rng.UniformInt(0, 999);
      rec.sql_id = 2;
      rec.response_ms = 1.0;
      metrics.Accumulate(rec);
    }
    helper.AtTime(t) = level;
  }
  std::unordered_map<uint64_t, TimeSeries> sessions;
  sessions[1] = TimeSeries(0, 1, 100);
  sessions[2] = TimeSeries(0, 1, 100);
  TimeSeries session(0, 1, 100);
  const std::vector<HsqlScore> hsql = {{1, 1.0, 0, 0, 0},
                                       {2, 0.5, 0, 0, 0}};
  RsqlOptions options = SceneOptions();
  const std::map<std::string, const TimeSeries*> helpers = {
      {"cpu_usage", &helper}};
  const RsqlResult with_nodes = IdentifyRootCauseSqls(
      metrics, sessions, session, helpers, hsql, nullptr, 50, 100, options);
  EXPECT_EQ(with_nodes.clusters.size(), 1u);

  options.use_metric_helper_nodes = false;
  const RsqlResult without_nodes = IdentifyRootCauseSqls(
      metrics, sessions, session, helpers, hsql, nullptr, 50, 100, options);
  EXPECT_GE(without_nodes.clusters.size(), 1u);
}

TEST(RsqlTest, EmptyMetricsYieldEmptyResult) {
  TemplateMetricsStore metrics(0, 10);
  const RsqlResult result = IdentifyRootCauseSqls(
      metrics, {}, TimeSeries(0, 1, 10), {}, {}, nullptr, 2, 8,
      RsqlOptions{});
  EXPECT_TRUE(result.ranking.empty());
  EXPECT_TRUE(result.clusters.empty());
}

// --------------------------------------------- Diagnose input validation

/// Minimal well-formed input: a few records, a 1 s session series covering
/// the anomaly, an empty (but non-null) history provider.
struct ValidInputFixture {
  LogStore logs;
  MapHistoryProvider history;
  DiagnosisInput input;

  ValidInputFixture() {
    for (int64_t t = 0; t < 100; ++t) {
      logs.Append(Rec(t * 1000 + 100, 50.0, 1 + (t % 3)));
    }
    input.logs = logs.SortedRecords();
    input.history = &history;
    input.active_session = TimeSeries(0, 1, 100);
    for (size_t i = 0; i < 100; ++i) {
      input.active_session[i] = i < 60 ? 1.0 : 5.0;
    }
    input.anomaly_start_sec = 60;
    input.anomaly_end_sec = 90;
  }
};

TEST(DiagnoseValidationTest, WellFormedInputSucceeds) {
  ValidInputFixture f;
  DiagnoserOptions options;
  options.delta_s_sec = 60;  // lookback exactly covered by the metrics
  const StatusOr<DiagnosisResult> result = Diagnose(f.input, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->data_quality.degraded());
  EXPECT_EQ(result->data_quality.confidence, 1.0);
}

TEST(DiagnoseValidationTest, EmptyLogsDegradeToLogOutage) {
  ValidInputFixture f;
  f.input.logs = {};
  const StatusOr<DiagnosisResult> result =
      Diagnose(f.input, DiagnoserOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->data_quality.log_records, 0u);
  EXPECT_TRUE(result->hsql_ranking.empty());
  EXPECT_LT(result->data_quality.confidence, 1.0);
}

TEST(DiagnoseValidationTest, NullHistoryRejected) {
  ValidInputFixture f;
  f.input.history = nullptr;
  const StatusOr<DiagnosisResult> result =
      Diagnose(f.input, DiagnoserOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The message must point at the remedy, not just the nullptr.
  EXPECT_NE(result.status().message().find("MapHistoryProvider"),
            std::string::npos);
}

TEST(DiagnoseValidationTest, InvertedAnomalyBoundsRejected) {
  ValidInputFixture f;
  f.input.anomaly_start_sec = 90;
  f.input.anomaly_end_sec = 60;
  EXPECT_EQ(Diagnose(f.input, DiagnoserOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DiagnoseValidationTest, EmptyAnomalyPeriodRejected) {
  ValidInputFixture f;
  f.input.anomaly_start_sec = 60;
  f.input.anomaly_end_sec = 60;
  EXPECT_EQ(Diagnose(f.input, DiagnoserOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DiagnoseValidationTest, EmptySessionSeriesRejected) {
  ValidInputFixture f;
  f.input.active_session = TimeSeries();
  EXPECT_EQ(Diagnose(f.input, DiagnoserOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DiagnoseValidationTest, NonOneSecondSessionIntervalRejected) {
  ValidInputFixture f;
  f.input.active_session = TimeSeries(0, 10, 10);
  EXPECT_EQ(Diagnose(f.input, DiagnoserOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DiagnoseValidationTest, SeriesMissingAnomalyPeriodRejected) {
  ValidInputFixture f;
  // Metrics end before the anomaly begins.
  f.input.anomaly_start_sec = 200;
  f.input.anomaly_end_sec = 230;
  const StatusOr<DiagnosisResult> result =
      Diagnose(f.input, DiagnoserOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("does not intersect"),
            std::string::npos);
}

TEST(DiagnoseDataQualityTest, GapAndSanitizedCountersAreDisjoint) {
  ValidInputFixture f;
  // One genuinely-missing point and one finite-but-impossible point. Each
  // must land in exactly one counter: the garbage point used to be
  // sanitized into NaN first and then counted again as a gap.
  f.input.active_session[10] = std::numeric_limits<double>::quiet_NaN();
  f.input.active_session[20] = -5.0;
  DiagnoserOptions options;
  options.delta_s_sec = 60;  // diagnosis window [0, 90): 90 session points
  const StatusOr<DiagnosisResult> result = Diagnose(f.input, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const DataQuality& dq = result->data_quality;
  EXPECT_EQ(dq.session_points, 90u);
  EXPECT_EQ(dq.session_gap_points, 1u);
  EXPECT_EQ(dq.metric_points_sanitized, 1u);
  // The confidence penalty still charges both bad points, once each.
  EXPECT_NEAR(dq.confidence, 1.0 - 0.5 * 2.0 / 90.0, 1e-12);
}

TEST(DiagnoseTraceTest, PipelineTraceAlwaysPopulated) {
  ValidInputFixture f;
  DiagnoserOptions options;
  options.delta_s_sec = 60;
  const StatusOr<DiagnosisResult> result = Diagnose(f.input, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const obs::PipelineTrace& trace = result->trace;
  ASSERT_EQ(trace.stages.size(), 5u);
  const obs::StageTrace* session = trace.Find("session_estimation");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->counters.at("session_points"), 90);
  const obs::StageTrace* agg = trace.Find("window_aggregation");
  ASSERT_NE(agg, nullptr);
  EXPECT_GT(agg->counters.at("log_records"), 0);
  EXPECT_GE(trace.total_seconds, 0.0);
}

TEST(DiagnoseTraceTest, SpanRecordingNeverChangesTheDiagnosis) {
  ValidInputFixture f;
  DiagnoserOptions plain;
  plain.delta_s_sec = 60;
  const StatusOr<DiagnosisResult> without = Diagnose(f.input, plain);
  ASSERT_TRUE(without.ok());

  obs::TraceRecorder recorder;
  DiagnoserOptions traced = plain;
  traced.trace = &recorder;
  const StatusOr<DiagnosisResult> with = Diagnose(f.input, traced);
  ASSERT_TRUE(with.ok());

  EXPECT_EQ(with->rsql.ranking, without->rsql.ranking);
  EXPECT_EQ(with->hsql_ranking.size(), without->hsql_ranking.size());
  EXPECT_EQ(with->data_quality.confidence, without->data_quality.confidence);
  if (obs::kEnabled) {
    EXPECT_GT(recorder.event_count(), 0u);
  } else {
    EXPECT_EQ(recorder.event_count(), 0u);
  }
}

TEST(DiagnoseValidationTest, PartialLookbackDegradesInsteadOfRejecting) {
  ValidInputFixture f;
  // delta_s = 600 but metrics begin at t=0: the lookback is truncated,
  // which must degrade (with a note), not reject.
  DiagnoserOptions options;
  options.delta_s_sec = 600;
  const StatusOr<DiagnosisResult> truncated = Diagnose(f.input, options);
  ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
  EXPECT_TRUE(truncated->data_quality.lookback_truncated);
  EXPECT_TRUE(truncated->data_quality.degraded());
  EXPECT_LT(truncated->data_quality.confidence, 1.0);
}

}  // namespace
}  // namespace pinsql::core
