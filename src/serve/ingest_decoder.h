#ifndef PINSQL_SERVE_INGEST_DECODER_H_
#define PINSQL_SERVE_INGEST_DECODER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "serve/admission.h"
#include "util/status.h"

namespace pinsql::serve {

/// Decodes one POST /v1/ingest body straight into a StagedBatch: a single
/// pass of util's JsonLexer writes QueryLogRecord / PerfSample fields as it
/// reads them, with no JSON document in between.
///
/// Body: {"instance": u32, "records": [{"arrival_ms", "sql_id",
/// "examined_rows", "response_ms"?}...], "samples": [{"sec",
/// "active_session"?, "cpu_usage"?, "iops_usage"?, "row_lock_waits"?,
/// "mdl_waits"?}...]}. Integral fields must be integral JSON numbers in
/// range; optional metrics default to 0 and must be finite; `sql_id` is a
/// number up to 2^53 or a 1-16 digit hex string (the form /v1/reports
/// emits), so every 64-bit template id fits on the wire. Duplicate keys
/// resolve last-wins at every level.
///
/// Errors are ParseError with a stable message, decided in this order: a
/// JSON syntax error anywhere ("invalid JSON: <what> at offset N"), a
/// non-object body, 'instance', then 'records', then 'samples' — and
/// within a list, "too many" before the first invalid item.
StatusOr<StagedBatch> DecodeIngestBody(std::string_view body,
                                       const std::string& tenant,
                                       size_t max_records, size_t max_samples);

}  // namespace pinsql::serve

#endif  // PINSQL_SERVE_INGEST_DECODER_H_
