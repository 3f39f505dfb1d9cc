#ifndef PINSQL_STORE_CODEC_H_
#define PINSQL_STORE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "repair/actions.h"
#include "repair/events.h"
#include "sqltpl/fingerprint.h"

namespace pinsql::store::codec {

/// Wire width of a sequence count or an enum value.
enum class Width { kU8, kU32, kU64 };

/// Explicit little-endian binary encoding, independent of host byte order,
/// so a WAL written on one box replays on another. Fixed-width fields only:
/// the on-disk formats are versioned, not self-describing.
///
/// Writer and Reader share one method set, so each persisted type's layout
/// is written once, as a field list templated on the direction:
///
///   template <typename Io, typename Record>
///   bool RecordFields(Io& io, Record& record) {
///     return io.I64(record.arrival_ms) && io.F64(record.response_ms) && ...;
///   }
///
/// Writer methods take values and always succeed; Reader methods fill
/// references and fail (sticky) on underflow or a validation error.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  bool U8(uint8_t v) {
    out_->push_back(static_cast<char>(v));
    return true;
  }

  bool U32(uint32_t v) {
    char buf[4];
    buf[0] = static_cast<char>(v & 0xFFu);
    buf[1] = static_cast<char>((v >> 8) & 0xFFu);
    buf[2] = static_cast<char>((v >> 16) & 0xFFu);
    buf[3] = static_cast<char>((v >> 24) & 0xFFu);
    out_->append(buf, 4);
    return true;
  }

  bool U64(uint64_t v) {
    U32(static_cast<uint32_t>(v & 0xFFFFFFFFu));
    return U32(static_cast<uint32_t>(v >> 32));
  }

  bool I64(int64_t v) { return U64(static_cast<uint64_t>(v)); }

  bool F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return U64(bits);
  }

  bool Bool(bool v) { return U8(v ? 1 : 0); }

  /// Length-prefixed byte string.
  bool Str(std::string_view s) {
    U64(s.size());
    out_->append(s.data(), s.size());
    return true;
  }

  /// Element count at `width`, then each element through `fn`. The
  /// remaining arguments only matter to the Reader.
  template <typename Vec, typename Fn>
  bool Seq(const Vec& vec, size_t /*min_elem_bytes*/, Fn fn,
           Width width = Width::kU64, std::string_view /*implausible*/ = {}) {
    Uint(vec.size(), width);
    for (const auto& elem : vec) fn(elem);
    return true;
  }

  template <typename E>
  bool Enum(E e, E /*max*/, Width width,
            std::string_view /*out_of_range*/ = {}) {
    return Uint(static_cast<uint64_t>(e), width);
  }

  /// A value carried as its text form (a stable name, a JSON document).
  template <typename T, typename ToText, typename FromText>
  bool Text(const T& value, ToText to_text, FromText /*from_text*/,
            std::string_view /*unknown*/ = {}) {
    return Str(to_text(value));
  }

  bool Label(bool ok, std::string_view /*message*/) { return ok; }
  bool Relabel(bool ok, std::string_view /*message*/) { return ok; }

 private:
  bool Uint(uint64_t v, Width width) {
    switch (width) {
      case Width::kU8:
        return U8(static_cast<uint8_t>(v));
      case Width::kU32:
        return U32(static_cast<uint32_t>(v));
      case Width::kU64:
        break;
    }
    return U64(v);
  }

  std::string* out_;
};

/// Bounds-checked reader over one payload. Every accessor returns false
/// (and sticks failed) on underflow or a failed validation; a decode is
/// valid only when every read succeeded AND the caller consumed what it
/// expected. error() names the first failure that carried a message
/// (validations name themselves; Label names the rest by enclosing part).
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool U8(uint8_t& v) {
    if (!Need(1)) return false;
    v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool U32(uint32_t& v) {
    if (!Need(4)) return false;
    const auto* p = reinterpret_cast<const uint8_t*>(data_.data() + pos_);
    v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
        (static_cast<uint32_t>(p[2]) << 16) |
        (static_cast<uint32_t>(p[3]) << 24);
    pos_ += 4;
    return true;
  }

  /// Any 64-bit unsigned field (uint64_t or a size_t counter).
  template <typename T>
    requires(std::is_unsigned_v<T> && sizeof(T) == 8)
  bool U64(T& v) {
    uint32_t lo = 0, hi = 0;
    if (!U32(lo) || !U32(hi)) return false;
    v = static_cast<T>(static_cast<uint64_t>(lo) |
                       (static_cast<uint64_t>(hi) << 32));
    return true;
  }

  /// Any signed integer field travelling as 64 bits (narrowed on read).
  template <typename T>
    requires(std::is_integral_v<T> && std::is_signed_v<T>)
  bool I64(T& v) {
    uint64_t u = 0;
    if (!U64(u)) return false;
    v = static_cast<T>(static_cast<int64_t>(u));
    return true;
  }

  bool F64(double& v) {
    uint64_t bits = 0;
    if (!U64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }

  bool Bool(bool& v) {
    uint8_t b = 0;
    if (!U8(b)) return false;
    v = b != 0;
    return true;
  }

  bool Str(std::string& s) {
    uint64_t n = 0;
    if (!U64(n)) return false;
    if (n > remaining()) return Fail();
    s.assign(data_.data() + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }

  /// Reads the count, rejects one whose minimum encoding (`min_elem_bytes`
  /// per element) cannot fit the remaining payload before any allocation
  /// (failing with `implausible`), resizes `vec` and reads each element
  /// through `fn`.
  template <typename Vec, typename Fn>
  bool Seq(Vec& vec, size_t min_elem_bytes, Fn fn, Width width = Width::kU64,
           std::string_view implausible = {}) {
    uint64_t count = 0;
    if (!Uint(count, width)) return false;
    if (count > remaining() / min_elem_bytes) return Fail(implausible);
    vec.resize(static_cast<size_t>(count));
    for (auto& elem : vec) {
      if (!fn(elem)) return false;
    }
    return true;
  }

  /// An enum value in [0, max]; anything above fails with `out_of_range`.
  template <typename E>
  bool Enum(E& e, E max, Width width, std::string_view out_of_range = {}) {
    uint64_t v = 0;
    if (!Uint(v, width)) return false;
    if (v > static_cast<uint64_t>(max)) return Fail(out_of_range);
    e = static_cast<E>(v);
    return true;
  }

  /// Reads a text form and converts it with `from_text(text, &value)`; a
  /// rejected text fails with `unknown` followed by the text (no message
  /// when `unknown` is empty).
  template <typename T, typename ToText, typename FromText>
  bool Text(T& value, ToText /*to_text*/, FromText from_text,
            std::string_view unknown = {}) {
    std::string text;
    if (!Str(text)) return false;
    if (!from_text(text, &value)) {
      return Fail(unknown.empty() ? std::string()
                                  : std::string(unknown) + text);
    }
    return true;
  }

  /// Names a failure inside `ok` that nothing inside named yet.
  bool Label(bool ok, std::string_view message) {
    if (!ok && error_.empty()) error_ = message;
    return ok;
  }

  /// Names a failure inside `ok`, replacing any name from inside.
  bool Relabel(bool ok, std::string_view message) {
    if (!ok) error_ = message;
    return ok;
  }

  size_t remaining() const { return data_.size() - pos_; }
  const std::string& error() const { return error_; }
  /// Fully consumed and never underflowed — the check every frame decoder
  /// ends with (trailing garbage inside a CRC-valid payload is a bug, not
  /// forward compatibility).
  bool exhausted() const { return !failed_ && pos_ == data_.size(); }

 private:
  bool Need(size_t n) {
    if (failed_ || data_.size() - pos_ < n) return Fail();
    return true;
  }

  bool Fail(std::string_view message = {}) {
    failed_ = true;
    if (error_.empty()) error_ = message;
    return false;
  }

  bool Uint(uint64_t& v, Width width) {
    switch (width) {
      case Width::kU8: {
        uint8_t b = 0;
        if (!U8(b)) return false;
        v = b;
        return true;
      }
      case Width::kU32: {
        uint32_t w = 0;
        if (!U32(w)) return false;
        v = w;
        return true;
      }
      case Width::kU64:
        break;
    }
    return U64(v);
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Field lists shared by the WAL frames and the checkpoint body. `Io` is a
// Writer or a Reader; the value is const when writing.

template <typename Io, typename Record>
bool RecordFields(Io& io, Record& record) {
  return io.I64(record.arrival_ms) && io.F64(record.response_ms) &&
         io.U64(record.sql_id) && io.I64(record.examined_rows);
}

template <typename Io, typename Sample>
bool SampleFields(Io& io, Sample& sample) {
  return io.I64(sample.sec) && io.F64(sample.active_session) &&
         io.F64(sample.cpu_usage) && io.F64(sample.iops_usage) &&
         io.F64(sample.row_lock_waits) && io.F64(sample.mdl_waits);
}

/// Kind and action travel as their stable names, so a read validates
/// against the enums instead of trusting a raw byte ("unknown kind
/// <name>" / "unknown action <name>").
template <typename Io, typename Event>
bool RepairEventFields(Io& io, Event& event) {
  return io.F64(event.time_ms) &&
         io.Text(event.kind, repair::RepairEventKindName,
                 repair::RepairEventKindFromName, "unknown kind ") &&
         io.Text(event.action, repair::ActionTypeName,
                 repair::ActionTypeFromName, "unknown action ") &&
         io.U64(event.sql_id) && io.U64(event.ticket) &&
         io.I64(event.attempt) && io.Str(event.detail);
}

/// A template catalog entry (text, statement kind, tables). The table
/// count is U32 in the WAL and U64 in checkpoints, and the two formats
/// name a bad table count and a bad table differently.
template <typename Io, typename Entry>
bool TemplateFields(Io& io, Entry& entry, Width table_count,
                    std::string_view implausible_tables,
                    std::string_view bad_table) {
  return io.Str(entry.template_text) &&
         io.Enum(entry.kind, sqltpl::StatementKind::kOther, Width::kU8,
                 "unknown statement kind") &&
         io.Seq(
             entry.tables, 8,
             [&](auto& table) { return io.Label(io.Str(table), bad_table); },
             table_count, implausible_tables);
}

}  // namespace pinsql::store::codec

#endif  // PINSQL_STORE_CODEC_H_
