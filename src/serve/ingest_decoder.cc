#include "serve/ingest_decoder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>

#include "util/json.h"
#include "util/strings.h"

namespace pinsql::serve {
namespace {

using Token = JsonLexer::Token;

// 2^53: the largest integer a JSON double carries exactly.
constexpr int64_t kMaxExactId = int64_t{1} << 53;
constexpr int64_t kMaxMs = int64_t{4'000'000'000'000'000};
constexpr int64_t kMaxSec = int64_t{4'000'000'000'000};

/// A field's state after its last occurrence (duplicate keys: last wins).
enum class Field { kAbsent, kOk, kBad };

/// A finite, integral `d` within [min, max].
bool IntegralIn(double d, int64_t min, int64_t max, int64_t* out) {
  if (!std::isfinite(d) || d != std::floor(d) ||
      d < static_cast<double>(min) || d > static_cast<double>(max)) {
    return false;
  }
  *out = static_cast<int64_t>(d);
  return true;
}

/// Reads an integral number within [min, max]; any other value is consumed
/// and marks the field bad. False only on a syntax error.
bool ReadInt(JsonLexer* lex, int64_t min, int64_t max, Field* field,
             int64_t* out) {
  Token token = Token::kNull;
  if (!lex->NextValue(&token)) return false;
  *field = Field::kBad;
  if (token != Token::kNumber) return lex->Skip(token);
  if (IntegralIn(lex->number(), min, max, out)) *field = Field::kOk;
  return true;
}

/// An optional metric: absent keeps the caller's default (0).
bool ReadFinite(JsonLexer* lex, Field* field, double* out) {
  Token token = Token::kNull;
  if (!lex->NextValue(&token)) return false;
  *field = Field::kBad;
  if (token != Token::kNumber) return lex->Skip(token);
  if (std::isfinite(lex->number())) {
    *out = lex->number();
    *field = Field::kOk;
  }
  return true;
}

/// A template id: an integral number in [0, 2^53] or a hex string.
bool ReadSqlId(JsonLexer* lex, Field* field, uint64_t* out) {
  Token token = Token::kNull;
  if (!lex->NextValue(&token)) return false;
  *field = Field::kBad;
  if (token == Token::kString) {
    if (HexToHash(lex->string(), out)) *field = Field::kOk;
    return true;
  }
  if (token != Token::kNumber) return lex->Skip(token);
  int64_t id = 0;
  if (IntegralIn(lex->number(), 0, kMaxExactId, &id)) {
    *out = static_cast<uint64_t>(id);
    *field = Field::kOk;
  }
  return true;
}

/// Walks one object's members, handing each key to `member`, which must
/// consume the member's value. False only on a syntax error.
template <typename Member>
bool ForEachMember(JsonLexer* lex, Member&& member) {
  bool more = false;
  if (!lex->NextMember(true, &more)) return false;
  while (more) {
    if (!member(lex->string()) || !lex->NextMember(false, &more)) {
      return false;
    }
  }
  return true;
}

/// Decodes one record; an invalid one leaves its message in *error.
bool DecodeRecord(JsonLexer* lex, QueryLogRecord* record,
                  const char** error) {
  Token token = Token::kNull;
  if (!lex->NextValue(&token)) return false;
  if (token != Token::kObject) {
    *error = "record must be an object";
    return lex->Skip(token);
  }
  Field arrival = Field::kAbsent, sql_id = Field::kAbsent;
  Field rows = Field::kAbsent, response = Field::kAbsent;
  const bool ok = ForEachMember(lex, [&](std::string_view key) {
    if (key == "arrival_ms") {
      return ReadInt(lex, -kMaxMs, kMaxMs, &arrival, &record->arrival_ms);
    }
    if (key == "sql_id") return ReadSqlId(lex, &sql_id, &record->sql_id);
    if (key == "examined_rows") {
      return ReadInt(lex, 0, kMaxMs, &rows, &record->examined_rows);
    }
    if (key == "response_ms") {
      return ReadFinite(lex, &response, &record->response_ms);
    }
    return lex->SkipValue();
  });
  if (!ok) return false;
  if (arrival != Field::kOk || sql_id != Field::kOk || rows != Field::kOk) {
    *error = "invalid record fields";
  } else if (response == Field::kBad || record->response_ms < 0.0) {
    *error = "invalid record response_ms";
  }
  return true;
}

/// The optional sample metrics, in the order their errors are checked.
constexpr std::pair<std::string_view, double online::PerfSample::*>
    kSampleMetrics[] = {
        {"active_session", &online::PerfSample::active_session},
        {"cpu_usage", &online::PerfSample::cpu_usage},
        {"iops_usage", &online::PerfSample::iops_usage},
        {"row_lock_waits", &online::PerfSample::row_lock_waits},
        {"mdl_waits", &online::PerfSample::mdl_waits},
};

/// Decodes one sample; an invalid one leaves its message in *error.
bool DecodeSample(JsonLexer* lex, online::PerfSample* sample,
                  const char** error) {
  Token token = Token::kNull;
  if (!lex->NextValue(&token)) return false;
  if (token != Token::kObject) {
    *error = "sample must be an object";
    return lex->Skip(token);
  }
  Field sec = Field::kAbsent;
  Field metrics[std::size(kSampleMetrics)] = {};  // all kAbsent
  const bool ok = ForEachMember(lex, [&](std::string_view key) {
    if (key == "sec") {
      return ReadInt(lex, -kMaxSec, kMaxSec, &sec, &sample->sec);
    }
    for (size_t m = 0; m < std::size(kSampleMetrics); ++m) {
      if (key == kSampleMetrics[m].first) {
        double* value = &(sample->*kSampleMetrics[m].second);
        return ReadFinite(lex, &metrics[m], value);
      }
    }
    return lex->SkipValue();
  });
  if (!ok) return false;
  if (sec != Field::kOk) {
    *error = "invalid sample sec";
  } else if (std::find(std::begin(metrics), std::end(metrics), Field::kBad) !=
             std::end(metrics)) {
    *error = "invalid sample metric";
  }
  return true;
}

/// One top-level list ('records' or 'samples') as its last occurrence left
/// it. `error` is the first failing check in the DOM walk's order: not an
/// array, then too many items, then the first invalid item. Items past an
/// error are only lexed.
template <typename Item>
struct List {
  const char* error = nullptr;
  std::vector<Item> items;
};

template <typename Item, typename DecodeItem>
bool DecodeList(JsonLexer* lex, size_t max_items, const char* not_array,
                const char* too_many, DecodeItem decode_item,
                List<Item>* list) {
  list->error = nullptr;
  list->items.clear();
  Token token = Token::kNull;
  if (!lex->NextValue(&token)) return false;
  if (token != Token::kArray) {
    list->error = not_array;
    return lex->Skip(token);
  }
  size_t count = 0;
  bool more = false;
  if (!lex->NextElement(true, &more)) return false;
  while (more) {
    if (++count > max_items) list->error = too_many;  // outranks item errors
    if (list->error != nullptr) {
      if (!lex->SkipValue()) return false;
    } else {
      Item item;
      if (!decode_item(lex, &item, &list->error)) return false;
      if (list->error == nullptr) list->items.push_back(item);
    }
    if (!lex->NextElement(false, &more)) return false;
  }
  // Staged batches wait in the admission queues: keep them exactly sized.
  list->items.shrink_to_fit();
  return true;
}

}  // namespace

StatusOr<StagedBatch> DecodeIngestBody(std::string_view body,
                                       const std::string& tenant,
                                       size_t max_records,
                                       size_t max_samples) {
  JsonLexer lex(body);
  const auto syntax_error = [&lex] {
    return Status::ParseError("invalid JSON: " + lex.status().message());
  };
  Token token = Token::kNull;
  if (!lex.NextValue(&token)) return syntax_error();
  if (token != Token::kObject) {
    if (!lex.Skip(token) || !lex.Finish()) return syntax_error();
    return Status::ParseError("body must be an object");
  }

  Field instance = Field::kAbsent;
  int64_t instance_id = 0;
  List<QueryLogRecord> records;
  List<online::PerfSample> samples;
  const bool ok = ForEachMember(&lex, [&](std::string_view key) {
    if (key == "instance") {
      return ReadInt(&lex, 0, std::numeric_limits<uint32_t>::max(), &instance,
                     &instance_id);
    }
    if (key == "records") {
      return DecodeList(&lex, max_records, "'records' must be an array",
                        "too many records in one batch", DecodeRecord,
                        &records);
    }
    if (key == "samples") {
      return DecodeList(&lex, max_samples, "'samples' must be an array",
                        "too many samples in one batch", DecodeSample,
                        &samples);
    }
    return lex.SkipValue();
  });
  if (!ok || !lex.Finish()) return syntax_error();

  if (instance != Field::kOk) {
    return Status::ParseError("missing or invalid 'instance'");
  }
  if (records.error != nullptr) return Status::ParseError(records.error);
  if (samples.error != nullptr) return Status::ParseError(samples.error);
  StagedBatch batch;
  batch.tenant = tenant;
  batch.instance_id = static_cast<uint32_t>(instance_id);
  batch.records = std::move(records.items);
  batch.samples = std::move(samples.items);
  batch.wire_bytes = body.size();
  return batch;
}

}  // namespace pinsql::serve
