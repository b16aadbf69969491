#include "src/stats/text_codec.hpp"

#include <bit>
#include <charconv>
#include <istream>
#include <ostream>

namespace anonpath::stats {

namespace {

[[noreturn]] void bad_token(parse_error_kind kind, std::string_view source,
                            std::string_view token, const std::string& want,
                            std::string_view field) {
  throw parse_error(kind, std::string(source),
                    "'" + std::string(token) + "' " + want +
                        (field.empty() ? "" : " (" + std::string(field) + ")"));
}

}  // namespace

void put_hex64(std::ostream& os, std::uint64_t bits) {
  char buf[16];
  for (int i = 15; i >= 0; --i, bits >>= 4)
    buf[i] = "0123456789abcdef"[bits & 0xf];
  os.write(buf, sizeof buf);
}

void put_hex_double(std::ostream& os, double x) {
  os << ' ';
  put_hex64(os, std::bit_cast<std::uint64_t>(x));
}

bool decode_hex(std::string_view digits, std::uint64_t& out) noexcept {
  if (digits.empty() || digits.size() > 16) return false;
  std::uint64_t bits = 0;
  for (const char c : digits) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9')
      digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return false;
    bits = (bits << 4) | digit;
  }
  out = bits;
  return true;
}

std::uint64_t read_u64(std::string_view token, std::string_view source,
                       std::string_view field, std::uint64_t max) {
  // std::from_chars on an unsigned type is exactly the grammar: digits
  // only, no sign, no whitespace, no prefix, overflow reported.
  std::uint64_t value = 0;
  const char* const end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::invalid_argument || stop != end)
    bad_token(parse_error_kind::malformed, source, token,
              "is not a decimal integer (digits only)", field);
  if (ec != std::errc{} || value > max)
    bad_token(parse_error_kind::out_of_range, source, token,
              "is out of range (at most " + std::to_string(max) + ")", field);
  return value;
}

std::uint64_t read_hex64(std::string_view token, std::string_view source,
                         std::string_view field) {
  std::uint64_t bits = 0;
  if (token.size() != 16 || !decode_hex(token, bits))
    bad_token(parse_error_kind::malformed, source, token,
              "is not 16 lowercase hex digits", field);
  return bits;
}

double read_hex_double(std::string_view token, std::string_view source,
                       std::string_view field) {
  return std::bit_cast<double>(read_hex64(token, source, field));
}

std::string token_reader::next(std::string_view field) {
  std::string tok;
  if (!(is_ >> tok))
    fail(parse_error_kind::truncated,
         "truncated stream reading " + std::string(field));
  return tok;
}

void token_reader::expect(std::string_view keyword) {
  const std::string tok = next(keyword);
  if (tok != keyword)
    fail(parse_error_kind::malformed,
         "expected '" + std::string(keyword) + "', found '" + tok + "'");
}

}  // namespace anonpath::stats
