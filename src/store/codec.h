#ifndef PINSQL_STORE_CODEC_H_
#define PINSQL_STORE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "logstore/log_store.h"
#include "online/stream_ingestor.h"
#include "repair/events.h"
#include "util/status.h"

namespace pinsql::store::codec {

/// Explicit little-endian binary encoding, independent of host byte order,
/// so a WAL written on one box replays on another. Fixed-width fields only:
/// the on-disk formats are versioned, not self-describing.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }

  void U32(uint32_t v) {
    char buf[4];
    buf[0] = static_cast<char>(v & 0xFFu);
    buf[1] = static_cast<char>((v >> 8) & 0xFFu);
    buf[2] = static_cast<char>((v >> 16) & 0xFFu);
    buf[3] = static_cast<char>((v >> 24) & 0xFFu);
    out_->append(buf, 4);
  }

  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v & 0xFFFFFFFFu));
    U32(static_cast<uint32_t>(v >> 32));
  }

  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void Bool(bool v) { U8(v ? 1 : 0); }

  /// Length-prefixed byte string.
  void Str(std::string_view s) {
    U64(s.size());
    out_->append(s.data(), s.size());
  }

 private:
  std::string* out_;
};

/// Bounds-checked reader over one payload. Every accessor returns false
/// (and sticks failed) on underflow; a decode is valid only when every read
/// succeeded AND the caller consumed what it expected.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) {
    if (!Need(1)) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool U32(uint32_t* v) {
    if (!Need(4)) return false;
    const auto* p = reinterpret_cast<const uint8_t*>(data_.data() + pos_);
    *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    pos_ += 4;
    return true;
  }

  bool U64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    if (!U32(&lo) || !U32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }

  bool I64(int64_t* v) {
    uint64_t u = 0;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool F64(double* v) {
    uint64_t bits = 0;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool Bool(bool* v) {
    uint8_t b = 0;
    if (!U8(&b)) return false;
    *v = b != 0;
    return true;
  }

  bool Str(std::string* s) {
    uint64_t n = 0;
    if (!U64(&n)) return false;
    if (n > remaining()) {
      failed_ = true;
      return false;
    }
    s->assign(data_.data() + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool failed() const { return failed_; }
  /// Fully consumed and never underflowed — the check every frame decoder
  /// ends with (trailing garbage inside a CRC-valid payload is a bug, not
  /// forward compatibility).
  bool exhausted() const { return !failed_ && pos_ == data_.size(); }

 private:
  bool Need(size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// Field layouts shared by the WAL frames and the checkpoint body. Each type
// is encoded in exactly one place, so the two formats cannot drift apart.

inline void EncodeRecord(Writer* w, const QueryLogRecord& record) {
  w->I64(record.arrival_ms);
  w->F64(record.response_ms);
  w->U64(record.sql_id);
  w->I64(record.examined_rows);
}

inline bool DecodeRecord(Reader* r, QueryLogRecord* record) {
  return r->I64(&record->arrival_ms) && r->F64(&record->response_ms) &&
         r->U64(&record->sql_id) && r->I64(&record->examined_rows);
}

inline void EncodeSample(Writer* w, const online::PerfSample& sample) {
  w->I64(sample.sec);
  w->F64(sample.active_session);
  w->F64(sample.cpu_usage);
  w->F64(sample.iops_usage);
  w->F64(sample.row_lock_waits);
  w->F64(sample.mdl_waits);
}

inline bool DecodeSample(Reader* r, online::PerfSample* sample) {
  return r->I64(&sample->sec) && r->F64(&sample->active_session) &&
         r->F64(&sample->cpu_usage) && r->F64(&sample->iops_usage) &&
         r->F64(&sample->row_lock_waits) && r->F64(&sample->mdl_waits);
}

/// Kind and action travel as their stable names, so a decode validates
/// against the enums instead of trusting a raw byte.
inline void EncodeRepairEvent(Writer* w, const repair::RepairEvent& event) {
  w->F64(event.time_ms);
  w->Str(repair::RepairEventKindName(event.kind));
  w->Str(repair::ActionTypeName(event.action));
  w->U64(event.sql_id);
  w->U64(event.ticket);
  w->I64(event.attempt);
  w->Str(event.detail);
}

/// ParseError "truncated", "unknown kind <name>" or "unknown action
/// <name>"; callers prefix their own context.
inline Status DecodeRepairEvent(Reader* r, repair::RepairEvent* event) {
  std::string kind_name, action_name;
  int64_t attempt = 0;
  if (!r->F64(&event->time_ms) || !r->Str(&kind_name) ||
      !r->Str(&action_name) || !r->U64(&event->sql_id) ||
      !r->U64(&event->ticket) || !r->I64(&attempt) || !r->Str(&event->detail)) {
    return Status::ParseError("truncated");
  }
  if (!repair::RepairEventKindFromName(kind_name, &event->kind)) {
    return Status::ParseError("unknown kind " + kind_name);
  }
  if (!repair::ActionTypeFromName(action_name, &event->action)) {
    return Status::ParseError("unknown action " + action_name);
  }
  event->attempt = static_cast<int>(attempt);
  return Status::OK();
}

}  // namespace pinsql::store::codec

#endif  // PINSQL_STORE_CODEC_H_
