#ifndef PINSQL_CORE_DIAGNOSER_H_
#define PINSQL_CORE_DIAGNOSER_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/hsql.h"
#include "core/rsql.h"
#include "core/session_estimator.h"
#include "logstore/log_store.h"
#include "obs/trace.h"
#include "pipeline/template_metrics.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace pinsql::core {

/// End-to-end PinSQL configuration: one flag per ablatable component.
struct DiagnoserOptions {
  /// delta_s: lookback before the detected anomaly start (paper: 30 min;
  /// scaled workloads use shorter windows).
  int64_t delta_s_sec = 600;
  SessionEstimatorOptions estimator;
  HsqlOptions hsql;
  RsqlOptions rsql;
  /// Worker threads for the parallel stages (session estimation, window
  /// aggregation, H-SQL scoring, clustering, verification). 1 = fully
  /// serial; any value produces bit-identical results — see DESIGN.md
  /// "Threading model" for why.
  int num_threads = 1;
  /// Optional span recorder (DESIGN.md §7). When non-null, Diagnose opens
  /// per-stage spans and the R-SQL stage records per-candidate
  /// verification spans from the pool workers. Tracing never changes the
  /// diagnosis output: results are bit-identical with or without it, at
  /// any num_threads.
  obs::TraceRecorder* trace = nullptr;
};

/// Session estimation also reads queries that arrived this long before the
/// diagnosis window but were still running inside it (10 min suffices for
/// the workloads simulated here; queries rarely run longer).
inline constexpr int64_t kEstimatorLookbackSec = 600;

/// Everything PinSQL consumes for one anomaly case. The metric series
/// should cover [anomaly_start - delta_s, anomaly_end); partial coverage
/// degrades the diagnosis (recorded in DataQuality) and zero overlap with
/// the anomaly period is rejected. `history` must be non-null (pass an
/// empty MapHistoryProvider when no history exists).
struct DiagnosisInput {
  /// Query-log records in arrival order, read in place: a LogStore's
  /// SortedRecords(), or the SnapshotRange() copy the online scheduler
  /// takes. Records outside [a_s - delta_s - kEstimatorLookbackSec, a_e)
  /// are ignored; none at all degrades the diagnosis (log outage).
  std::span<const QueryLogRecord> logs;
  TimeSeries active_session;
  /// Additional metrics used as clustering helper nodes (cpu_usage,
  /// iops_usage, row-lock and MDL wait counters, ...).
  std::map<std::string, TimeSeries> helper_metrics;
  int64_t anomaly_start_sec = 0;  // a_s
  int64_t anomaly_end_sec = 0;    // a_e
  const HistoryProvider* history = nullptr;
};

/// Data-quality accounting for one diagnosis run: which telemetry faults
/// the inputs carried and which stages ran degraded (DESIGN.md §5). A
/// pristine run has confidence 1.0 and no notes.
struct DataQuality {
  /// Active-session points inside the diagnosis window, and how many of
  /// them were telemetry gaps (non-finite).
  size_t session_points = 0;
  size_t session_gap_points = 0;
  /// Same accounting summed over the accepted helper-metric series.
  size_t helper_points = 0;
  size_t helper_gap_points = 0;
  /// Helper series dropped because their shape was unusable (wrong
  /// interval, no overlap with the window).
  size_t helpers_dropped = 0;
  /// Finite-but-impossible metric values (negative counts, overflow
  /// artefacts) converted to gaps before analysis. Disjoint from the gap
  /// counters above, which count only genuinely-missing (non-finite as
  /// collected) points — so every bad point appears in exactly one
  /// counter, and the confidence penalty charges it exactly once.
  size_t metric_points_sanitized = 0;
  /// Query-log records that aggregated into the diagnosis window.
  size_t log_records = 0;
  /// The lookback [a_s - delta_s, ...) was not fully covered by metrics.
  bool lookback_truncated = false;
  /// The metrics end before the anomaly does.
  bool anomaly_tail_truncated = false;
  /// History verification accounting: (candidate, lookback-day) pairs
  /// consulted, windows the provider had no series for, and windows too
  /// short to cover the relative anomaly period. Verification proceeds on
  /// whichever windows survive.
  size_t history_windows_checked = 0;
  size_t history_windows_missing = 0;
  size_t history_windows_truncated = 0;
  /// Human-readable degradation notes, one per absorbed fault class.
  std::vector<std::string> notes;
  /// 1.0 for pristine inputs; multiplied down per degradation class. A
  /// consumer should treat a low-confidence ranking as a hint, not a
  /// verdict.
  double confidence = 1.0;

  bool degraded() const { return !notes.empty(); }
};

/// Full diagnosis output, including per-stage wall-clock timings (the
/// paper reports them in Sec. VIII-B).
struct DiagnosisResult {
  int64_t ts_sec = 0;  // diagnosis window start (a_s - delta_s)
  int64_t te_sec = 0;  // diagnosis window end (a_e)
  std::vector<HsqlScore> hsql_ranking;
  RsqlResult rsql;
  SessionEstimate estimate;
  TemplateMetricsStore metrics;
  DataQuality data_quality;

  double estimate_seconds = 0.0;
  double hsql_seconds = 0.0;
  double cluster_seconds = 0.0;
  double verify_seconds = 0.0;
  double total_seconds = 0.0;

  /// Per-stage wall times and counters, always populated (even under
  /// PINSQL_DISABLE_OBS): the stage names are session_estimation,
  /// window_aggregation, hsql_scoring, rsql_clustering and
  /// rsql_verification. Rendered as the `trace` block of the report JSON.
  obs::PipelineTrace trace;

  /// Top-k sql_ids of each ranking (convenience).
  std::vector<uint64_t> TopHsql(size_t k) const;
  std::vector<uint64_t> TopRsql(size_t k) const;
};

/// Runs the full PinSQL root-cause analysis for one anomaly case: estimate
/// individual active sessions -> rank H-SQLs -> cluster/filter/verify ->
/// rank R-SQLs.
///
/// Malformed inputs (null history, inverted or empty anomaly bounds,
/// metrics that miss the anomaly period entirely) return InvalidArgument
/// instead of undefined behaviour. Damaged-but-usable inputs (metric gaps,
/// truncated windows, missing history) are absorbed and accounted for in
/// DiagnosisResult::data_quality.
StatusOr<DiagnosisResult> Diagnose(const DiagnosisInput& input,
                                   const DiagnoserOptions& options);

}  // namespace pinsql::core

#endif  // PINSQL_CORE_DIAGNOSER_H_
