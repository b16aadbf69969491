#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

#include "src/stats/error.hpp"

namespace anonpath::stats {

// One grammar for every number the text formats (trace, checkpoint, metrics
// JSONL) and the CLI flags carry:
//   * an unsigned integer is ASCII decimal digits only: no sign, no
//     whitespace, no base prefix. A value past the field's maximum is
//     out_of_range; anything else that is not digits is malformed.
//   * a double travels as its IEEE-754 bit pattern, exactly 16 lowercase hex
//     digits: exact round trip, no locale or precision pitfalls, and
//     uppercase is refused so write(read(t)) stays byte-identical.
// Every reader throws parse_error(kind, source, ...) naming the token and
// the field it was read for.

/// Writes the 16 lowercase hex digits of `bits`.
void put_hex64(std::ostream& os, std::uint64_t bits);

/// Writes ' ' and the bit pattern of x: the double encoding of traces,
/// checkpoint records and campaign_scope.
void put_hex_double(std::ostream& os, double x);

/// Decodes 1 to 16 lowercase hex digits; false on any other input.
[[nodiscard]] bool decode_hex(std::string_view digits,
                              std::uint64_t& out) noexcept;

/// The whole of `token` as a decimal integer of at most `max`.
[[nodiscard]] std::uint64_t read_u64(
    std::string_view token, std::string_view source, std::string_view field,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Exactly 16 lowercase hex digits, as raw bits or as the double they encode.
[[nodiscard]] std::uint64_t read_hex64(std::string_view token,
                                       std::string_view source,
                                       std::string_view field);
[[nodiscard]] double read_hex_double(std::string_view token,
                                     std::string_view source,
                                     std::string_view field);

/// Whitespace-delimited tokens of untrusted text, read under the grammar
/// above. Running out of input is `truncated`; every failure is a
/// parse_error labelled with the source ("trace", "checkpoint").
class token_reader {
 public:
  token_reader(std::istream& is, std::string source)
      : is_(is), source_(std::move(source)) {}

  /// The next token, read for `field`.
  [[nodiscard]] std::string next(std::string_view field);
  /// The next token must be exactly `keyword`.
  void expect(std::string_view keyword);
  [[nodiscard]] std::uint64_t u64(
      std::string_view field,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    return read_u64(next(field), source_, field, max);
  }
  [[nodiscard]] std::uint32_t u32(std::string_view field) {
    return static_cast<std::uint32_t>(u64(field, 0xFFFFFFFFull));
  }
  [[nodiscard]] std::uint64_t hex64(std::string_view field) {
    return read_hex64(next(field), source_, field);
  }
  [[nodiscard]] double hex_double(std::string_view field) {
    return read_hex_double(next(field), source_, field);
  }

  [[noreturn]] void fail(parse_error_kind kind,
                         const std::string& detail) const {
    throw parse_error(kind, source_, detail);
  }

 private:
  std::istream& is_;
  std::string source_;
};

}  // namespace anonpath::stats
