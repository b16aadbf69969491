#include "src/stats/discrete_sampler.hpp"

#include <cmath>
#include <utility>

#include "src/stats/contract.hpp"
#include "src/stats/kahan.hpp"

namespace anonpath::stats {

discrete_sampler::discrete_sampler(std::vector<double> weights)
    : prob_(std::move(weights)) {
  ANONPATH_EXPECTS(!prob_.empty());
  kahan_sum total;
  for (double w : prob_) {
    ANONPATH_EXPECTS(w >= 0.0 && std::isfinite(w));
    total.add(w);
  }
  ANONPATH_EXPECTS(total.value() > 0.0);

  const std::size_t n = prob_.size();

  // Vose's algorithm: split scaled probabilities into "small" (< 1) and
  // "large" (>= 1) stacks, pairing each small column with a large donor.
  // prob_ holds the scaled probability until a column's entry is final.
  // Both stacks are linked through alias_: a column on a stack keeps the
  // next column down in alias_ until it is popped from "small", when its
  // alias becomes final. Columns left on a stack at the end get
  // probability 1 and alias 0, as sample() never reads their alias.
  constexpr std::uint32_t none = ~std::uint32_t{0};
  alias_.resize(n);
  std::uint32_t small = none, large = none;  // stack tops
  for (std::size_t i = 0; i < n; ++i) {
    prob_[i] = (prob_[i] / total.value()) * static_cast<double>(n);
    std::uint32_t& top = prob_[i] < 1.0 ? small : large;
    alias_[i] = top;
    top = static_cast<std::uint32_t>(i);
  }
  while (small != none && large != none) {
    const std::uint32_t s = small;
    const std::uint32_t l = large;
    small = alias_[s];
    alias_[s] = l;
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    if (prob_[l] < 1.0) {
      large = alias_[l];
      alias_[l] = small;
      small = l;
    }
  }
  // Leftovers are 1.0 up to rounding.
  for (std::uint32_t top : {small, large}) {
    while (top != none) {
      const std::uint32_t next = alias_[top];
      prob_[top] = 1.0;
      alias_[top] = 0;
      top = next;
    }
  }
}

std::size_t discrete_sampler::sample(rng& gen) const {
  const std::size_t col = static_cast<std::size_t>(gen.next_below(prob_.size()));
  return gen.next_double() < prob_[col] ? col : alias_[col];
}

}  // namespace anonpath::stats
