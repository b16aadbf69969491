// Extension (beyond the paper's single-message analysis): the streaming
// online-inference frontier. Offline disclosure post-processing holds dense
// per-receiver state — O(population) per tracked pair — which is exactly
// what breaks first at 1e6..1e7 receivers. The sketch backend (count-min
// counts plus a weighted bottom-k candidate reservoir) makes the online
// session's memory independent of the population while the posterior stays
// conformance-pinned to the exact engine. This sweep maps that trade-off:
// engine memory and posterior agreement as the receiver population grows
// with the observation stream held fixed: the sketch's bytes stay constant
// while the exact engine's grow, and both rank the same top receiver at
// every population.

#include <algorithm>
#include <string>

#include "bench/claim.hpp"
#include "src/attack/disclosure.hpp"
#include "src/attack/sda.hpp"
#include "src/attack/sketch_sda.hpp"
#include "src/workload/population.hpp"
#include "src/workload/streaming.hpp"

namespace {

using namespace anonpath;

constexpr std::uint32_t sweep_rounds = 4000;
constexpr std::uint32_t sweep_round_size = 8;

workload::population_config sweep_config(std::uint32_t receivers,
                                         std::uint64_t seed) {
  workload::population_config cfg;
  cfg.seed = seed;
  cfg.user_count = receivers;
  cfg.receiver_count = receivers;
  cfg.round_count = sweep_rounds;
  cfg.persistent_pairs = 1;
  cfg.round_size = sweep_round_size;
  return cfg;
}

bool emit(std::ostream& os) {
  bool ok = true;
  os << "# ext_streaming: online sda engine memory & posterior agreement vs "
        "receiver population (R="
     << sweep_rounds << " rounds, B=" << sweep_round_size
     << " msgs/round, exact vs count-min+bottom-k sketch)\n";
  os << "receivers,exact_bytes,sketch_bytes,memory_ratio,top_match,"
        "exact_entropy_bits,sketch_entropy_bits\n";
  std::size_t first_sketch_bytes = 0, last_exact_bytes = 0;
  for (const std::uint32_t receivers : {1000u, 10000u, 100000u, 1000000u}) {
    const workload::population pop(sweep_config(receivers, 97));
    workload::cooccurrence_config ccfg;
    ccfg.threads = 0;  // all cores
    const workload::streaming_accumulator exact_acc =
        workload::accumulate_streaming(pop, 0, sweep_rounds, {}, ccfg);
    workload::streaming_config scfg;
    scfg.backend = workload::stream_backend::sketch;
    const workload::streaming_accumulator sketch_acc =
        workload::accumulate_streaming(pop, 0, sweep_rounds, scfg, ccfg);
    const attack::sda_attack exact =
        attack::sda_attack::from_counts(exact_acc.totals(), 0, receivers);
    const attack::sketch_sda_attack sketched =
        attack::sketch_sda_attack::from_accumulator(sketch_acc, 0, receivers);
    const std::vector<double> pe = exact.posterior();
    const std::vector<double> ps = sketched.posterior();
    const auto te = std::max_element(pe.begin(), pe.end()) - pe.begin();
    const auto ts = std::max_element(ps.begin(), ps.end()) - ps.begin();
    os << receivers << ',' << exact.memory_bytes() << ','
       << sketched.memory_bytes() << ','
       << static_cast<double>(exact.memory_bytes()) /
              static_cast<double>(sketched.memory_bytes())
       << ',' << (te == ts ? 1 : 0) << ','
       << attack::summarize_posterior(pe, sweep_rounds, 0.99).entropy_bits
       << ','
       << attack::summarize_posterior(ps, sweep_rounds, 0.99).entropy_bits
       << "\n";
    const std::string at = " at " + std::to_string(receivers) + " receivers";
    if (first_sketch_bytes == 0) first_sketch_bytes = sketched.memory_bytes();
    ok &= bench::claim(sketched.memory_bytes() == first_sketch_bytes,
                       "the sketch's memory changes" + at);
    ok &= bench::claim(exact.memory_bytes() > last_exact_bytes,
                       "the exact engine's memory does not grow" + at);
    last_exact_bytes = exact.memory_bytes();
    ok &= bench::claim(te == ts,
                       "the engines rank different top receivers" + at);
  }
  os << "\n";
  return ok;
}

}  // namespace

int main() { return emit(std::cout) ? 0 : 1; }
