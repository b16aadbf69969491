// Pins run_simulation bit for bit over a scenario matrix the goldens do
// not cover: onion and crowds transport on the clique, a ring and a
// random-regular graph, under every adversary each topology admits, with
// no faults, link loss, loss plus retries, churn, and a crash schedule,
// plus sda and sequential-Bayes sessions and planned (kpaths) routes. Each
// run's report folds into one FNV-1a hash of its fields' bit patterns (entropy bits, delivery, the hop
// histogram, events executed, wire and memo counters), compared with a
// literal. Any change to the event order, an rng stream or scoring moves
// a hash; a deliberate change must re-pin them and say why.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/simulator.hpp"

namespace anonpath::sim {
namespace {

class report_hash {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const stats::running_summary& s) {
    add(static_cast<std::uint64_t>(s.count()));
    if (s.count() == 0) return;
    add(s.mean());
    add(s.std_error());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_report(const sim_report& r) {
  report_hash h;
  h.add(r.submitted);
  h.add(r.delivered);
  h.add(r.retransmissions);
  h.add(r.end_to_end_latency);
  h.add(r.realized_hops);
  h.add(static_cast<std::uint64_t>(r.hop_histogram.size()));
  for (const std::uint64_t count : r.hop_histogram) h.add(count);
  h.add(r.empirical_entropy_bits);
  h.add(r.empirical_entropy_stderr);
  h.add(r.identified_fraction);
  h.add(r.top1_accuracy);
  h.add(r.events_executed);
  h.add(r.wire_dropped);
  h.add(r.wire_stranded);
  h.add(r.wire_crashed);
  h.add(r.memo_hits);
  h.add(r.memo_misses);
  h.add(r.obs_memo_hits);
  h.add(r.obs_memo_misses);
  h.add(static_cast<std::uint64_t>(r.session.has_value()));
  if (r.session) {
    h.add(r.session->entropy_bits);
    h.add(r.session->top_mass);
    h.add(static_cast<std::uint64_t>(r.session->top_receiver));
    h.add(static_cast<std::uint64_t>(r.session->identified));
    h.add(static_cast<std::uint64_t>(r.session->identified_round));
    h.add(static_cast<std::uint64_t>(r.session->target_messages));
    h.add(static_cast<std::uint64_t>(r.session->trajectory.size()));
  }
  return h.value();
}

struct pinned_case {
  std::string name;
  sim_config config;
};

sim_config base_config() {
  sim_config cfg;
  cfg.sys = {24, 3};
  cfg.compromised = spread_compromised(24, 3);
  cfg.lengths = path_length_distribution::uniform(1, 5);
  cfg.message_count = 150;
  cfg.arrival_rate = 60.0;
  cfg.latency = {0.010, 0.004, 0.001};
  cfg.seed = 11;
  return cfg;
}

/// The matrix, in a fixed order. Each case gets its own seed so no two
/// share an rng stream.
std::vector<pinned_case> matrix() {
  std::vector<pinned_case> out;
  std::uint64_t seed = 11;
  for (const routing_mode mode :
       {routing_mode::source_routed, routing_mode::hop_by_hop}) {
    for (const net::topology_kind topo :
         {net::topology_kind::complete, net::topology_kind::ring,
          net::topology_kind::random_regular}) {
      for (const adversary_kind adv :
           {adversary_kind::full_coalition, adversary_kind::partial_coverage,
            adversary_kind::timing_correlator}) {
        if (topo != net::topology_kind::complete &&
            adv == adversary_kind::timing_correlator)
          continue;  // no gapped likelihood on restricted graphs
        for (const char* fault :
             {"none", "drop", "retry", "churn", "crash"}) {
          sim_config cfg = base_config();
          cfg.seed = seed++;
          cfg.mode = mode;
          cfg.topology.kind = topo;
          cfg.topology.ring_k = 2;
          cfg.topology.degree = 4;
          cfg.topology.graph_seed = 5;
          cfg.adversary.kind = adv;
          if (adv == adversary_kind::partial_coverage)
            cfg.adversary.coverage_fraction = 0.4;
          const std::string f = fault;
          if (f == "drop") cfg.faults.drop_probability = 0.1;
          if (f == "retry") {
            cfg.faults.drop_probability = 0.2;
            cfg.retry.max_retries = 2;
            cfg.retry.timeout = 0.3;
          }
          if (f == "churn") cfg.faults.churn = {0.5, 0.2};
          if (f == "crash") {
            cfg.faults.outages = {{5, 0.2, 0.8}, {9, 0.0, 1.5}};
            cfg.faults.mix_failures.count = 3;
          }
          out.push_back({std::string(mode == routing_mode::source_routed
                                         ? "onion"
                                         : "crowds") +
                             "/" + net::topology_kind_name(topo) + "/" +
                             adversary_kind_label(adv) + "/" + f,
                         cfg});
        }
      }
    }
  }
  for (const attack::attack_kind attack :
       {attack::attack_kind::sda, attack::attack_kind::sequential_bayes}) {
    sim_config cfg = base_config();
    cfg.seed = seed++;
    cfg.message_count = 400;
    cfg.session.rounds = 40;
    cfg.session.receiver_count = 30;
    cfg.session.target_sender = 1;
    cfg.session.partner = 4;
    cfg.session.attack = attack;
    out.push_back({std::string("onion/complete/session/") +
                       attack::attack_kind_label(attack),
                   cfg});
  }
  // Planned routes on the clique and on a random-regular graph, with
  // loss and retries.
  for (const net::topology_kind topo :
       {net::topology_kind::complete, net::topology_kind::random_regular}) {
    sim_config cfg = base_config();
    cfg.seed = seed++;
    cfg.topology.kind = topo;
    cfg.topology.graph_seed = 5;
    cfg.routing.kind = net::route_select::kpaths;
    cfg.routing.k = 3;
    cfg.faults.drop_probability = 0.1;
    cfg.retry.max_retries = 1;
    out.push_back({std::string("onion/") + net::topology_kind_name(topo) +
                       "/kpaths/retry",
                   cfg});
  }
  return out;
}

/// One literal per matrix case, in matrix() order.
const std::vector<std::uint64_t> pinned_hashes = {
    0xcb05a5c28160a6a6ULL,  // onion/complete/full_coalition/none
    0x498298fc8c2c5364ULL,  // onion/complete/full_coalition/drop
    0xe68e60e94d0689f1ULL,  // onion/complete/full_coalition/retry
    0x668e105e130879d6ULL,  // onion/complete/full_coalition/churn
    0xfb19e0b28870637cULL,  // onion/complete/full_coalition/crash
    0x455d458e6a9b5014ULL,  // onion/complete/partial_coverage/none
    0xb76549a99f878ebaULL,  // onion/complete/partial_coverage/drop
    0xd314db6c037950ffULL,  // onion/complete/partial_coverage/retry
    0x8e0ef8a08d96960cULL,  // onion/complete/partial_coverage/churn
    0xc5a7b3569f471046ULL,  // onion/complete/partial_coverage/crash
    0x136b936bfe3807d5ULL,  // onion/complete/timing_correlator/none
    0xce8c39383aae2b65ULL,  // onion/complete/timing_correlator/drop
    0xe372f142c2c6f5ffULL,  // onion/complete/timing_correlator/retry
    0xbe95922fd76fff0aULL,  // onion/complete/timing_correlator/churn
    0x6562e64a2cab3bedULL,  // onion/complete/timing_correlator/crash
    0x846be6bdbb190cb3ULL,  // onion/ring/full_coalition/none
    0x9c0181fc0a610a58ULL,  // onion/ring/full_coalition/drop
    0x5ae12461000bbfb9ULL,  // onion/ring/full_coalition/retry
    0x33ab9a8ee2114b56ULL,  // onion/ring/full_coalition/churn
    0x2ea8ab3801129956ULL,  // onion/ring/full_coalition/crash
    0x8ce311f3daf02d9cULL,  // onion/ring/partial_coverage/none
    0xd60a1ea8bf73a61eULL,  // onion/ring/partial_coverage/drop
    0x6ee5b0e22b77316eULL,  // onion/ring/partial_coverage/retry
    0x9356104513afec81ULL,  // onion/ring/partial_coverage/churn
    0x9bee447b01acf4ceULL,  // onion/ring/partial_coverage/crash
    0x0f9102cd1950b478ULL,  // onion/regular/full_coalition/none
    0x76378079eadb62f8ULL,  // onion/regular/full_coalition/drop
    0x1f65e87574189af7ULL,  // onion/regular/full_coalition/retry
    0x1a3a7b0d36ea48d5ULL,  // onion/regular/full_coalition/churn
    0xf5704b8311d458a0ULL,  // onion/regular/full_coalition/crash
    0xc654a0ca24d863a9ULL,  // onion/regular/partial_coverage/none
    0xb107f8c66e0731ddULL,  // onion/regular/partial_coverage/drop
    0x6503f777dad38cb9ULL,  // onion/regular/partial_coverage/retry
    0x5c3827dd731c0310ULL,  // onion/regular/partial_coverage/churn
    0xca676a11bd1b6af3ULL,  // onion/regular/partial_coverage/crash
    0x747c55537c4e3597ULL,  // crowds/complete/full_coalition/none
    0x0788f12896be70d0ULL,  // crowds/complete/full_coalition/drop
    0x6602e61b7135f618ULL,  // crowds/complete/full_coalition/retry
    0xc203f89aead05007ULL,  // crowds/complete/full_coalition/churn
    0x4546b3c3cc90ec14ULL,  // crowds/complete/full_coalition/crash
    0xd444fb7da40dabc0ULL,  // crowds/complete/partial_coverage/none
    0x39ab9529097cafc4ULL,  // crowds/complete/partial_coverage/drop
    0xb4b22aca547f9573ULL,  // crowds/complete/partial_coverage/retry
    0xf0ef25bdba6336f9ULL,  // crowds/complete/partial_coverage/churn
    0xc6c3fcadb9e5eac6ULL,  // crowds/complete/partial_coverage/crash
    0xe7cd096c10fdd4dfULL,  // crowds/complete/timing_correlator/none
    0xde010c653d446e2dULL,  // crowds/complete/timing_correlator/drop
    0x7ce51ce90ad5f070ULL,  // crowds/complete/timing_correlator/retry
    0x25dd284ff411045dULL,  // crowds/complete/timing_correlator/churn
    0xc4228caa85804620ULL,  // crowds/complete/timing_correlator/crash
    0x0d2480d044403797ULL,  // crowds/ring/full_coalition/none
    0x4b0249ebb4bd8babULL,  // crowds/ring/full_coalition/drop
    0xcfd27f78c5cf050aULL,  // crowds/ring/full_coalition/retry
    0x634f893b0cb5e950ULL,  // crowds/ring/full_coalition/churn
    0xf91c7b07a34bc4deULL,  // crowds/ring/full_coalition/crash
    0xeb6a1a1a7f338fafULL,  // crowds/ring/partial_coverage/none
    0x7c0ad91dc03ca461ULL,  // crowds/ring/partial_coverage/drop
    0x066a08d71b0b5e00ULL,  // crowds/ring/partial_coverage/retry
    0x22ce399c37190ddeULL,  // crowds/ring/partial_coverage/churn
    0x6aad7da09057afccULL,  // crowds/ring/partial_coverage/crash
    0x2614ef62154bc9abULL,  // crowds/regular/full_coalition/none
    0x8bceefaf73e1a278ULL,  // crowds/regular/full_coalition/drop
    0x929b871feabcbd49ULL,  // crowds/regular/full_coalition/retry
    0x5bb118aadf4d40a8ULL,  // crowds/regular/full_coalition/churn
    0x96f21e50f8160677ULL,  // crowds/regular/full_coalition/crash
    0x69b9eec3429f3b2fULL,  // crowds/regular/partial_coverage/none
    0xa0d1d841af4bb8eeULL,  // crowds/regular/partial_coverage/drop
    0x43183e2e9368fccbULL,  // crowds/regular/partial_coverage/retry
    0xb5e3be04b3127647ULL,  // crowds/regular/partial_coverage/churn
    0x0e5055bdc5b855afULL,  // crowds/regular/partial_coverage/crash
    0x7726f19aedeeaed1ULL,  // onion/complete/session/sda
    0xebcc385fa9e19b56ULL,  // onion/complete/session/sequential_bayes
    0xb698e7d7d0045ffcULL,  // onion/complete/kpaths/retry
    0x8dba7d23bc4ffd6fULL,  // onion/regular/kpaths/retry
};

TEST(RunReportPin, EveryMatrixCaseMatchesItsPinnedHash) {
  const std::vector<pinned_case> cases = matrix();
  std::string actual;
  for (const pinned_case& c : cases) {
    ASSERT_EQ(invalid_reason(c.config), nullptr) << c.name;
    char line[96];
    std::snprintf(line, sizeof line, "    0x%016llxULL,  // %s\n",
                  static_cast<unsigned long long>(
                      hash_report(run_simulation(c.config))),
                  c.name.c_str());
    actual += line;
  }
  std::string expected;
  for (std::size_t i = 0; i < pinned_hashes.size() && i < cases.size(); ++i) {
    char line[96];
    std::snprintf(line, sizeof line, "    0x%016llxULL,  // %s\n",
                  static_cast<unsigned long long>(pinned_hashes[i]),
                  cases[i].name.c_str());
    expected += line;
  }
  EXPECT_EQ(pinned_hashes.size(), cases.size());
  EXPECT_EQ(actual, expected);
}

TEST(RunReportPin, MatrixReachesEveryFaultPath) {
  // The pins only guard paths the matrix takes: loss, retransmission,
  // churn strands, crash strands and session scoring all occur.
  std::uint64_t dropped = 0, retransmitted = 0, stranded = 0, crashed = 0;
  std::uint64_t sessions = 0;
  for (const pinned_case& c : matrix()) {
    const sim_report r = run_simulation(c.config);
    dropped += r.wire_dropped;
    retransmitted += r.retransmissions;
    stranded += r.wire_stranded;
    crashed += r.wire_crashed;
    sessions += r.session.has_value() ? 1 : 0;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(retransmitted, 0u);
  EXPECT_GT(stranded, 0u);
  EXPECT_GT(crashed, 0u);
  EXPECT_EQ(sessions, 2u);
}

}  // namespace
}  // namespace anonpath::sim
