#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/span.hpp"

namespace perfbench {

using clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(clock::time_point start);

/// User plus system CPU seconds of the whole process (every thread).
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median of a non-empty sample (mean of the middle two for even sizes).
[[nodiscard]] double median(std::vector<double> values);

/// Empirical q-quantile by the nearest-rank rule; q in (0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Output checks: every expect() is one attempted check; a false one is a
/// failure and is reported on stderr with its description.
class checks {
 public:
  void expect(bool ok, std::string_view what);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// A workload that throws fails every check it attempted (at least one).
  void fail_all(std::string_view why);

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct metric {
  double value = 0.0;
  std::string unit;
};
using metric_map = std::map<std::string, metric>;

/// Sum of the durations of every span named `name`, in seconds.
[[nodiscard]] double span_total_s(const anonpath::obs::tracer& t,
                                  std::string_view name);

/// Durations of every span named `name`, in milliseconds, in id order.
[[nodiscard]] std::vector<double> span_durations_ms(
    const anonpath::obs::tracer& t, std::string_view name);

/// One benchmark workload. The harness calls setup() several times, then
/// alternates solve() and check() until the run's time is spent. solve()
/// is the timed work; with a tracer it wraps every call into the library
/// in a span named after the layer it enters ("<layer>.<what>").
class bench_workload {
 public:
  virtual ~bench_workload() = default;

  /// Builds the inputs from the seed and warms up; idempotent.
  virtual void setup() = 0;

  /// The timed work. `tracer` is null on untraced iterations.
  virtual void solve(anonpath::obs::tracer* tracer) = 0;

  /// Validates the outputs of the latest solve().
  virtual void check(checks& c) = 0;

  /// Work units one solve() completes, and their name.
  [[nodiscard]] virtual double work_units() const = 0;
  [[nodiscard]] virtual const char* work_unit_name() const = 0;

  /// Per-layer metrics of the latest traced solve(), read from its spans.
  virtual void layer_metrics(const anonpath::obs::tracer& tracer,
                             metric_map& out) = 0;

  /// Extra traced work run once per traced process (outside solve time),
  /// recorded under its own root span. Default: nothing.
  /// `out` already holds the median per-layer metrics of the solves.
  virtual void extra_trace(anonpath::obs::tracer& /*tracer*/,
                           metric_map& /*out*/, checks& /*c*/) {}
};

[[nodiscard]] std::unique_ptr<bench_workload> make_sim_long(
    std::uint64_t seed);
[[nodiscard]] std::unique_ptr<bench_workload> make_study_grid(
    std::uint64_t seed);
[[nodiscard]] std::unique_ptr<bench_workload> make_disclosure(
    std::uint64_t seed);
[[nodiscard]] std::unique_ptr<bench_workload> make_plan_regular(
    std::uint64_t seed);

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< metrics JSONL path for traced runs ("" = none)
};

/// Runs one workload under the options and prints the result object as
/// the last line of stdout. Returns the process exit code.
int run(const run_options& opt);

}  // namespace perfbench
