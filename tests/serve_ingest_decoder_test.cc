// Differential test of the streaming /v1/ingest decoder against a
// DOM-based reference: Json::Parse, then field extraction from the tree.
// Both consume the same JsonLexer, so every body must produce the same
// status, the same message and the same batch bytes. The one intended
// divergence, hex-string sql_ids, is covered by the reference's
// `hex_sql_id` switch and by HexSqlIdIsTheOneDocumentedDivergence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "serve/ingest_decoder.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pinsql::serve {
namespace {

// --- DOM reference ---------------------------------------------------------

/// Reads an integral JSON number within [min, max] (doubles carry 53 exact
/// integer bits).
bool GetIntField(const Json& obj, std::string_view key, int64_t min,
                 int64_t max, int64_t* out) {
  const Json* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) return false;
  const double d = v->AsNumber();
  if (!std::isfinite(d) || d != std::floor(d)) return false;
  if (d < static_cast<double>(min) || d > static_cast<double>(max)) {
    return false;
  }
  *out = static_cast<int64_t>(d);
  return true;
}

bool GetFiniteField(const Json& obj, std::string_view key, double fallback,
                    double* out) {
  const Json* v = obj.Find(key);
  if (v == nullptr) {
    *out = fallback;
    return true;
  }
  if (!v->is_number() || !std::isfinite(v->AsNumber())) return false;
  *out = v->AsNumber();
  return true;
}

/// The ingest body semantics as a DOM walk. With hex_sql_id=false it is the
/// numbers-only wire of earlier releases.
StatusOr<StagedBatch> ReferenceDecode(std::string_view body,
                                      const std::string& tenant,
                                      size_t max_records, size_t max_samples,
                                      bool hex_sql_id = true) {
  auto parsed = Json::Parse(body);
  if (!parsed.ok()) {
    return Status::ParseError("invalid JSON: " + parsed.status().message());
  }
  const Json& root = parsed.value();
  if (!root.is_object()) return Status::ParseError("body must be an object");

  StagedBatch batch;
  batch.tenant = tenant;
  batch.wire_bytes = body.size();

  int64_t instance = 0;
  if (!GetIntField(root, "instance", 0,
                   std::numeric_limits<uint32_t>::max(), &instance)) {
    return Status::ParseError("missing or invalid 'instance'");
  }
  batch.instance_id = static_cast<uint32_t>(instance);

  if (const Json* records = root.Find("records")) {
    if (!records->is_array()) {
      return Status::ParseError("'records' must be an array");
    }
    if (records->AsArray().size() > max_records) {
      return Status::ParseError("too many records in one batch");
    }
    for (const Json& item : records->AsArray()) {
      if (!item.is_object()) {
        return Status::ParseError("record must be an object");
      }
      QueryLogRecord record;
      int64_t sql_id = 0;
      constexpr int64_t kMaxExact = int64_t{1} << 53;
      constexpr int64_t kMaxMs = int64_t{4'000'000'000'000'000};
      const Json* hex = item.Find("sql_id");
      const bool hex_ok = hex_sql_id && hex != nullptr && hex->is_string() &&
                          HexToHash(hex->AsString(), &record.sql_id);
      if (!GetIntField(item, "arrival_ms", -kMaxMs, kMaxMs,
                       &record.arrival_ms) ||
          (!hex_ok && !GetIntField(item, "sql_id", 0, kMaxExact, &sql_id)) ||
          !GetIntField(item, "examined_rows", 0, kMaxMs,
                       &record.examined_rows)) {
        return Status::ParseError("invalid record fields");
      }
      if (!GetFiniteField(item, "response_ms", 0.0, &record.response_ms) ||
          record.response_ms < 0.0) {
        return Status::ParseError("invalid record response_ms");
      }
      if (!hex_ok) record.sql_id = static_cast<uint64_t>(sql_id);
      batch.records.push_back(record);
    }
  }

  if (const Json* samples = root.Find("samples")) {
    if (!samples->is_array()) {
      return Status::ParseError("'samples' must be an array");
    }
    if (samples->AsArray().size() > max_samples) {
      return Status::ParseError("too many samples in one batch");
    }
    for (const Json& item : samples->AsArray()) {
      if (!item.is_object()) {
        return Status::ParseError("sample must be an object");
      }
      online::PerfSample sample;
      constexpr int64_t kMaxSec = int64_t{4'000'000'000'000};
      if (!GetIntField(item, "sec", -kMaxSec, kMaxSec, &sample.sec)) {
        return Status::ParseError("invalid sample sec");
      }
      if (!GetFiniteField(item, "active_session", 0.0,
                          &sample.active_session) ||
          !GetFiniteField(item, "cpu_usage", 0.0, &sample.cpu_usage) ||
          !GetFiniteField(item, "iops_usage", 0.0, &sample.iops_usage) ||
          !GetFiniteField(item, "row_lock_waits", 0.0,
                          &sample.row_lock_waits) ||
          !GetFiniteField(item, "mdl_waits", 0.0, &sample.mdl_waits)) {
        return Status::ParseError("invalid sample metric");
      }
      batch.samples.push_back(sample);
    }
  }
  return batch;
}

// --- Comparison ------------------------------------------------------------

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Empty when decoder and reference agree; otherwise what differs.
std::string Diff(std::string_view body, size_t max_records,
                 size_t max_samples) {
  const auto got = DecodeIngestBody(body, "acme", max_records, max_samples);
  const auto want = ReferenceDecode(body, "acme", max_records, max_samples);
  if (got.ok() != want.ok() ||
      got.status().message() != want.status().message()) {
    return "status: decoder '" + got.status().ToString() + "' vs reference '" +
           want.status().ToString() + "'";
  }
  if (!got.ok()) return "";
  if (got->tenant != want->tenant || got->instance_id != want->instance_id ||
      got->wire_bytes != want->wire_bytes) {
    return "batch header";
  }
  if (!SameBytes(got->records, want->records)) return "record bytes";
  if (!SameBytes(got->samples, want->samples)) return "sample bytes";
  return "";
}

#define EXPECT_AGREE(body, max_records, max_samples)                       \
  do {                                                                     \
    const std::string& b_ = (body);                                        \
    const std::string d_ = Diff(b_, (max_records), (max_samples));         \
    EXPECT_TRUE(d_.empty()) << d_ << "\n  body: " << b_.substr(0, 300);    \
  } while (0)

// --- Corpora ---------------------------------------------------------------

/// The bodies HandlerFuzzTest (serve_http_test) sends through the server.
std::vector<std::string> HandlerFuzzCorpus() {
  std::vector<std::string> bodies = {
      "{\"instance\":1,\"records\":[{\"arrival_ms\":1000,"
      "\"sql_id\":3,\"response_ms\":2.5,\"examined_rows\":10}],"
      "\"samples\":[{\"sec\":1,\"active_session\":4.0}]}",
      "",
      "{",
      "{\"instance\":1,\"records\":[{",
      "[1,2,3]",
      "\"just a string\"",
      "{\"records\":[]}",
      "{\"instance\":-1}",
      "{\"instance\":4294967296}",
      "{\"instance\":1.5}",
      "{\"instance\":1,\"records\":{}}",
      "{\"instance\":1,\"records\":[42]}",
      "{\"instance\":1,\"records\":[{\"arrival_ms\":1e999}]}",
      "{\"instance\":1,\"records\":[{\"arrival_ms\":1000,\"sql_id\":3,"
      "\"response_ms\":-1}]}",
      "{\"instance\":1,\"samples\":[{\"sec\":1,\"cpu_usage\":1e999}]}",
      "{\"instance\":1,\"samples\":[{}]}",
      std::string("\x00\x01\x02garbage", 10),
      "{\"instance\":999,\"instance\":1,\"records\":[]}",
      "{\"instance\":1,\"instance\":999,\"records\":[]}",
      "{\"instance\":1}",
  };
  std::string big = "{\"instance\":1,\"records\":[";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) big += ',';
    big += "{\"arrival_ms\":1000,\"sql_id\":1,\"response_ms\":1,"
           "\"examined_rows\":1}";
  }
  big += "]}";
  bodies.push_back(big);
  Rng rng(20'260'809);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 512));
    std::string body;
    for (size_t i = 0; i < len; ++i) {
      body.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    bodies.push_back(std::move(body));
  }
  return bodies;
}

const char* Pick(Rng* rng, const std::vector<const char*>& from) {
  return from[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(from.size()) - 1))];
}

/// Number spellings that stress the lexer's number path.
std::string RandomNumber(Rng* rng, bool integral) {
  static const std::vector<const char*> kSpecial = {
      "-0",      "0",         "1e999",     "-1e999", "4.9e-324", "1e-400",
      "-1e-400", "2.2250738585072011e-308", "9007199254740993",
      "9007199254740992", "0123",  "1E+3",   "1.0",   "1.5",    "-1",
      "4294967295", "4294967296", "1e3", "3.0e0"};
  if (rng->Bernoulli(0.2)) return Pick(rng, kSpecial);
  if (integral) return std::to_string(rng->UniformInt(0, 2'000'000'000'000));
  return StrFormat("%.*g", static_cast<int>(rng->UniformInt(1, 17)),
                   rng->Uniform(0.0, 5000.0));
}

/// A key as the wire may spell it: plain, or with one letter \u-escaped.
std::string Key(Rng* rng, const std::string& key) {
  std::string out = "\"";
  if (!rng->Bernoulli(0.1)) {
    out += key;
  } else {
    const size_t at = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(key.size()) - 1));
    out.append(key, 0, at);
    out += StrFormat("\\u%04x", static_cast<unsigned char>(key[at]));
    out.append(key, at + 1);
  }
  out += '"';
  return out;
}

std::string Space(Rng* rng) {
  static const std::vector<const char*> kSpaces = {"", "", "", " ", "\n",
                                                   "\t ", "\r\n"};
  return Pick(rng, kSpaces);
}

/// A well-formed body with `records` records and 0-2 samples; fields come
/// in random order, optional ones may be absent.
std::string ValidBody(Rng* rng, int records, bool specials) {
  const auto num = [&](bool integral) {
    if (specials) return RandomNumber(rng, integral);
    return integral ? std::to_string(rng->UniformInt(0, 2'000'000'000'000))
                    : StrFormat("%.17g", rng->Uniform(0.0, 5000.0));
  };
  const auto object = [&](std::vector<std::string> members) {
    for (size_t i = members.size(); i > 1; --i) {
      std::swap(members[i - 1],
                members[static_cast<size_t>(
                    rng->UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    std::string out = "{";
    for (size_t i = 0; i < members.size(); ++i) {
      out += i > 0 ? "," : "";
      out += Space(rng);
      out += members[i];
    }
    out += Space(rng);
    return out + "}";
  };
  std::vector<std::string> recs;
  for (int i = 0; i < records; ++i) {
    std::vector<std::string> m = {
        Key(rng, "arrival_ms") + ":" + num(true),
        Key(rng, "sql_id") + ":" + num(true),
        Key(rng, "examined_rows") + ":" + Space(rng) + num(true)};
    if (rng->Bernoulli(0.8)) {
      m.push_back(Key(rng, "response_ms") + ":" + num(false));
    }
    if (rng->Bernoulli(0.05)) {
      m.push_back("\"extra\":[null,true,{\"a\":\"b\"}]");
    }
    recs.push_back(object(m));
  }
  std::vector<std::string> samples;
  const int num_samples = static_cast<int>(rng->UniformInt(0, 2));
  for (int i = 0; i < num_samples; ++i) {
    std::vector<std::string> m = {Key(rng, "sec") + ":" + num(true)};
    for (const char* metric : {"active_session", "cpu_usage", "iops_usage",
                               "row_lock_waits", "mdl_waits"}) {
      if (rng->Bernoulli(0.7)) m.push_back(Key(rng, metric) + ":" + num(false));
    }
    samples.push_back(object(m));
  }
  const auto array = [&](const std::vector<std::string>& items) {
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) {
        out += ',';
        out += Space(rng);
      }
      out += items[i];
    }
    return out + "]";
  };
  std::vector<std::string> top = {Key(rng, "instance") + ":" +
                                  std::to_string(rng->UniformInt(0, 3))};
  if (records > 0 || rng->Bernoulli(0.5)) {
    top.push_back(Key(rng, "records") + ":" + array(recs));
  }
  if (num_samples > 0 || rng->Bernoulli(0.5)) {
    top.push_back(Key(rng, "samples") + ":" + array(samples));
  }
  return Space(rng) + object(top) + Space(rng);
}

/// Applies one seeded mutation to `body`.
void Mutate(Rng* rng, const std::vector<std::string>& seeds,
            std::string* body) {
  static const std::vector<const char*> kFragments = {
      "\"",  ",",  ":",  "{",  "}",  "[",  "]",  " ",  "\\", "\\u00",
      "-",   ".",  "e",  "E+", "0",  "9",  "null", "true", "fals", "1e999",
      "-0",  "4.9e-324", "\"arr\\u0069val_ms\":1", "\"sql_id\":\"ff\"",
      "\"sql_id\":\"FFFFFFFFFFFFFFFF\"", "\"sql_id\":\"xyz\"",
      "\"instance\":1,", "\"records\":[],", "\"samples\":{},",
      "\"response_ms\":-0,", "\"sec\":1.5,", "\x01", "\xc3\xa9"};
  const auto pos = [&](size_t extra) {
    return static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(body->size() + extra) - 1));
  };
  if (body->empty()) {
    *body = Pick(rng, kFragments);
    return;
  }
  switch (rng->UniformInt(0, 6)) {
    case 0:  // byte flip
      (*body)[pos(0)] = static_cast<char>(rng->UniformInt(0, 255));
      break;
    case 1: {  // delete a short run
      const size_t at = pos(0);
      body->erase(at, static_cast<size_t>(rng->UniformInt(1, 8)));
      break;
    }
    case 2:  // insert a fragment
      body->insert(pos(1), Pick(rng, kFragments));
      break;
    case 3: {  // splice in a slice of another seed
      const std::string& other = seeds[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(seeds.size()) - 1))];
      if (other.empty()) break;
      const size_t from = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(other.size()) - 1));
      const size_t len = static_cast<size_t>(rng->UniformInt(1, 40));
      const size_t at = pos(1);
      body->replace(at, static_cast<size_t>(rng->UniformInt(0, 8)),
                    other.substr(from, len));
      break;
    }
    case 4: {  // repeated or near-miss member, first or last in an object
      static const std::vector<const char*> kMembers = {
          "\"instance\":2", "\"instance\":\"1\"", "\"records\":[]",
          "\"records\":[{\"arrival_ms\":1,\"sql_id\":2,\"examined_rows\":3}]",
          "\"records\":7", "\"samples\":[{\"sec\":3}]", "\"sql_id\":9",
          "\"arrival_ms\":null", "\"response_ms\":1e999",
          "\"examined_rows\":-1", "\"sec\":-0", "\"cpu_usage\":\"x\"",
          "\"sql_idx\":\"zz\"", "\"instances\":null", "\"sec \":1"};
      const std::string member = Pick(rng, kMembers);
      if (rng->Bernoulli(0.5)) {
        const size_t brace = body->find('{', pos(0));
        if (brace != std::string::npos) body->insert(brace + 1, member + ",");
      } else {
        const size_t brace = body->find('}', pos(0));
        if (brace != std::string::npos) body->insert(brace, "," + member);
      }
      break;
    }
    case 5: {  // replace a number with a special spelling
      const size_t at = body->find_first_of("0123456789", pos(0));
      if (at == std::string::npos) break;
      size_t end = at;
      while (end < body->size() &&
             std::strchr("0123456789.eE+-", (*body)[end]) != nullptr) {
        ++end;
      }
      body->replace(at, end - at, RandomNumber(rng, rng->Bernoulli(0.5)));
      break;
    }
    default: {  // escape one character of a key
      const size_t quote = body->find('"', pos(0));
      if (quote == std::string::npos || quote + 1 >= body->size()) break;
      const char c = (*body)[quote + 1];
      if (c == '"' || c == '\\') break;
      body->replace(quote + 1, 1,
                    StrFormat("\\u%04X", static_cast<unsigned char>(c)));
      break;
    }
  }
}

/// `depth` values deep at the 'extra' member of a valid body: the root
/// object is one level, so depth 256 is the deepest the lexer accepts.
std::string NestedBody(int depth, bool scalar_leaf) {
  std::string body = "{\"instance\":1,\"extra\":";
  const int containers = depth - 1 - (scalar_leaf ? 1 : 0);
  for (int i = 0; i < containers; ++i) body += (i % 2 == 0) ? "[" : "{\"k\":";
  if (scalar_leaf) body += "7";
  for (int i = containers - 1; i >= 0; --i) body += (i % 2 == 0) ? "]" : "}";
  return body + "}";
}

// --- Tests -----------------------------------------------------------------

TEST(IngestDecoderTest, HandlerFuzzCorpusAgrees) {
  for (const std::string& body : HandlerFuzzCorpus()) {
    EXPECT_AGREE(body, 256, 64);
    EXPECT_AGREE(body, 2, 1);
  }
}

TEST(IngestDecoderTest, ValidTwoHundredRecordBodiesAgree) {
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    const std::string body = ValidBody(&rng, 200, /*specials=*/false);
    ASSERT_TRUE(DecodeIngestBody(body, "acme", 65'536, 4096).ok()) << body;
    EXPECT_AGREE(body, 65'536, 4096);
  }
}

TEST(IngestDecoderTest, SeededMutationsAgree) {
  Rng rng(20'261'017);
  std::vector<std::string> seeds = HandlerFuzzCorpus();
  for (int i = 0; i < 64; ++i) {
    seeds.push_back(ValidBody(&rng, static_cast<int>(rng.UniformInt(0, 6)),
                              /*specials=*/true));
  }
  size_t accepted = 0;
  constexpr int kMutants = 30'000;
  for (int i = 0; i < kMutants; ++i) {
    std::string body =
        i % 4 == 0
            ? ValidBody(&rng, static_cast<int>(rng.UniformInt(0, 4)), true)
            : seeds[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(seeds.size()) - 1))];
    const int rounds = static_cast<int>(rng.UniformInt(i % 4 == 0 ? 0 : 1, 3));
    for (int r = 0; r < rounds; ++r) Mutate(&rng, seeds, &body);
    const size_t max_records = rng.Bernoulli(0.1) ? 2 : 256;
    EXPECT_AGREE(body, max_records, rng.Bernoulli(0.1) ? 1 : 64);
    if (DecodeIngestBody(body, "acme", max_records, 64).ok()) ++accepted;
  }
  // The corpus reaches both outcomes in volume, not just rejections.
  EXPECT_GT(accepted, static_cast<size_t>(kMutants / 20));
  EXPECT_LT(accepted, static_cast<size_t>(kMutants * 9 / 10));
}

TEST(IngestDecoderTest, NestingDepthBoundIsShared) {
  for (bool scalar_leaf : {false, true}) {
    const std::string ok = NestedBody(256, scalar_leaf);
    const std::string deep = NestedBody(257, scalar_leaf);
    EXPECT_TRUE(DecodeIngestBody(ok, "acme", 8, 8).ok());
    const auto refused = DecodeIngestBody(deep, "acme", 8, 8);
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.status().message().find("nesting too deep at offset"),
              std::string::npos);
    EXPECT_AGREE(ok, 8, 8);
    EXPECT_AGREE(deep, 8, 8);
  }
}

TEST(IngestDecoderTest, ErrorsKeepTheirOrderAndOffsets) {
  const auto message = [](std::string_view body) {
    return DecodeIngestBody(body, "acme", 2, 1).status().message();
  };
  // Syntax beats every semantic error, wherever it sits.
  EXPECT_EQ(message("{\"records\":7,\"instance\":1,}"),
            "invalid JSON: expected object key string at offset 26");
  EXPECT_EQ(message("{\"records\":7} x"),
            "invalid JSON: trailing characters after JSON document at "
            "offset 14");
  // instance -> records -> samples, independent of member order.
  EXPECT_EQ(message("{\"samples\":1,\"records\":1}"),
            "missing or invalid 'instance'");
  EXPECT_EQ(message("{\"samples\":1,\"records\":1,\"instance\":1}"),
            "'records' must be an array");
  // "too many" outranks an earlier invalid item.
  EXPECT_EQ(message("{\"instance\":1,\"records\":[1,2,3]}"),
            "too many records in one batch");
  EXPECT_EQ(message("{\"instance\":1,\"records\":[1,2]}"),
            "record must be an object");
  // Last wins: a later list replaces an earlier one whole, valid or not.
  EXPECT_TRUE(DecodeIngestBody(
                  "{\"instance\":1,\"records\":[1],\"records\":[]}", "acme",
                  2, 1)
                  .ok());
  const auto replaced = DecodeIngestBody(
      "{\"instance\":1,\"records\":[{\"arrival_ms\":1,\"sql_id\":2,"
      "\"examined_rows\":3}],\"records\":[]}",
      "acme", 2, 1);
  ASSERT_TRUE(replaced.ok());
  EXPECT_TRUE(replaced->records.empty());
  EXPECT_EQ(message("{\"instance\":1,\"samples\":[],\"samples\":[{}]}"),
            "invalid sample sec");
}

/// A one-record body whose sql_id member is spelled `id`.
std::string BodyWithSqlId(const std::string& id) {
  return "{\"instance\":1,\"records\":[{\"arrival_ms\":5,\"sql_id\":" + id +
         ",\"examined_rows\":1}]}";
}

TEST(IngestDecoderTest, HexSqlIdRoundTripsAboveTwoToThe53) {
  const uint64_t id = 0xFEDCBA9876543210ULL;  // > 2^53
  const std::string hex = "\"" + HashToHex(id) + "\"";
  const auto batch = DecodeIngestBody(BodyWithSqlId(hex), "acme", 8, 8);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->records.size(), 1u);
  EXPECT_EQ(batch->records[0].sql_id, id);
  // Lower-case and short forms are hex too; 17 digits or non-hex are not.
  const auto short_form =
      DecodeIngestBody(BodyWithSqlId("\"ff\""), "acme", 8, 8);
  ASSERT_TRUE(short_form.ok());
  EXPECT_EQ(short_form->records[0].sql_id, 255u);
  for (const char* bad :
       {"\"\"", "\"12345678901234567\"", "\"0x1f\"", "\"g\""}) {
    EXPECT_EQ(DecodeIngestBody(BodyWithSqlId(bad), "acme", 8, 8)
                  .status()
                  .message(),
              "invalid record fields")
        << bad;
  }
  // Numeric ids keep their rules: 2^53 is the largest accepted.
  EXPECT_TRUE(
      DecodeIngestBody(BodyWithSqlId("9007199254740992"), "acme", 8, 8).ok());
  EXPECT_FALSE(
      DecodeIngestBody(BodyWithSqlId("9007199254740994"), "acme", 8, 8).ok());
}

TEST(IngestDecoderTest, HexSqlIdIsTheOneDocumentedDivergence) {
  // The numbers-only wire refused hex ids; the decoder accepts them.
  const std::string body = BodyWithSqlId("\"A84F\"");
  EXPECT_TRUE(DecodeIngestBody(body, "acme", 8, 8).ok());
  EXPECT_EQ(ReferenceDecode(body, "acme", 8, 8, /*hex_sql_id=*/false)
                .status()
                .message(),
            "invalid record fields");
  EXPECT_AGREE(body, 8, 8);
}

}  // namespace
}  // namespace pinsql::serve
