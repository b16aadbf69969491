// Payload correlation, the paper's Sec. 4 assumption that a plaintext
// message is the same bytes on every hop. (Timing correlation is covered
// with the timing adversary in adversary_model_test.)

#include "src/sim/correlation.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

namespace anonpath::sim {
namespace {

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> out;
  for (char c : s) out.push_back(static_cast<std::byte>(c));
  return out;
}

TEST(Correlation, PlaintextForwardingIsCorrelatable) {
  // Crowds-style: payload forwarded unchanged => trivially correlated
  // (the paper's Sec. 4 correlation assumption).
  const auto p = bytes_of("the same payload on both hops");
  EXPECT_TRUE(payloads_correlate(p, p));
  EXPECT_DOUBLE_EQ(payload_similarity(p, p), 1.0);
}

TEST(Correlation, LengthMismatchNeverCorrelates) {
  const auto a = bytes_of("abc");
  const auto b = bytes_of("abcd");
  EXPECT_FALSE(payloads_correlate(a, b));
  EXPECT_DOUBLE_EQ(payload_similarity(a, b), 0.0);
}

}  // namespace
}  // namespace anonpath::sim
