#pragma once

#include <cstddef>
#include <span>

namespace anonpath::sim {

/// Payload-byte correlation as available to the paper's adversary
/// (Sec. 4, third worst-case assumption): two wire captures are "the same
/// message" when their bytes match. True for plaintext systems like Crowds;
/// defeated by per-hop re-encryption (onion layers), which the simulator
/// does not model: its adversary is *granted* message identities, per the
/// paper's worst-case model.
[[nodiscard]] bool payloads_correlate(std::span<const std::byte> a,
                                      std::span<const std::byte> b) noexcept;

/// Hamming-style similarity in [0,1]: fraction of positions with equal
/// bytes (0 when lengths differ).
[[nodiscard]] double payload_similarity(std::span<const std::byte> a,
                                        std::span<const std::byte> b) noexcept;

/// Timing correlation as available to a low-latency traffic adversary
/// (Zheng's rudimentary model): the score in [0, 1] that a capture at
/// `t_recv` is the *same message* as an earlier capture at `t_send`, given
/// that one forwarding step takes a delay in [lo, hi]. Peaks at the window
/// midpoint and falls off linearly to 0 at the edges, so "closest to the
/// expected latency" maximizes the score; exactly 0 outside the window
/// (padded by a relative epsilon so exact-boundary delays — jitter-free
/// links — still correlate). Preconditions: none; lo > hi or t_recv <=
/// t_send simply score 0.
[[nodiscard]] double timing_correlation(double t_send, double t_recv,
                                        double lo, double hi) noexcept;

}  // namespace anonpath::sim
