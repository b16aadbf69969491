#include "perfbench/harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "src/obs/jsonl.hpp"
#include "src/obs/metrics.hpp"

namespace perfbench {

namespace obs = anonpath::obs;

double seconds_since(clock::time_point start) {
  return std::chrono::duration<double>(clock::now() - start).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

void checks::expect(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "check failed: %.*s\n", static_cast<int>(what.size()),
               what.data());
}

void checks::fail_all(std::string_view why) {
  std::fprintf(stderr, "workload failed: %.*s\n", static_cast<int>(why.size()),
               why.data());
  attempted_ = std::max<std::uint64_t>(attempted_, 1);
  failed_ = attempted_;
}

double span_total_s(const obs::tracer& t, std::string_view name) {
  double ms = 0.0;
  for (const obs::span_record& s : t.spans())
    if (s.name == name) ms += s.duration_ms;
  return ms / 1000.0;
}

std::vector<double> span_durations_ms(const obs::tracer& t,
                                      std::string_view name) {
  std::vector<double> out;
  for (const obs::span_record& s : t.spans())
    if (s.name == name) out.push_back(s.duration_ms);
  return out;
}

namespace {

std::unique_ptr<bench_workload> make_workload(const run_options& opt) {
  if (opt.workload == "sim_long") return make_sim_long(opt.seed);
  if (opt.workload == "study_grid") return make_study_grid(opt.seed);
  if (opt.workload == "disclosure_1e6") return make_disclosure(opt.seed);
  if (opt.workload == "plan_regular") return make_plan_regular(opt.seed);
  return nullptr;
}

/// Share of each root span named "solve" that its direct children cover,
/// for the latest such root.
double solve_coverage(const obs::tracer& t) {
  std::uint64_t root = 0;
  double root_ms = 0.0;
  for (const obs::span_record& s : t.spans())
    if (s.parent == 0 && s.name == "solve") {
      root = s.id;
      root_ms = s.duration_ms;
    }
  double covered = 0.0;
  for (const obs::span_record& s : t.spans())
    if (s.parent == root) covered += s.duration_ms;
  return root_ms > 0.0 ? covered / root_ms : 0.0;
}

/// Self time per span name (duration minus the time its children cover),
/// in milliseconds, written as gauges next to the spans themselves.
void record_self_times(const obs::tracer& t, obs::metrics_registry& reg) {
  const auto& spans = t.spans();
  std::vector<double> child_ms(spans.size() + 1, 0.0);
  for (const obs::span_record& s : spans) child_ms[s.parent] += s.duration_ms;
  std::map<std::string, double> self_ms;
  for (const obs::span_record& s : spans)
    self_ms[s.name] += s.duration_ms - child_ms[s.id];
  for (const auto& [name, ms] : self_ms)
    reg.set_gauge("span.self_ms." + name, ms);
}

/// Prints the result object. A non-finite metric fails a check and is
/// printed as 0, since JSON has no NaN or infinity.
void print_result(checks& c, const metric_map& metrics) {
  for (const auto& [name, m] : metrics)
    c.expect(std::isfinite(m.value), "metric " + name + " is finite");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              c.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(c.attempted()),
              static_cast<unsigned long long>(c.failed()));
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct solve_sample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Host speed probe: a dependent pointer chase around one random cycle
/// through an 8 MiB array, which stays in the last-level cache of the host
/// this was written on. Its time tracks the host's state (see README.md,
/// "Noise"); it runs between solves, in this file's code only, so no
/// change to the library can move it.
class host_probe {
 public:
  /// Probe time at which a timing is reported unscaled: the probe's
  /// fastest state on the reference host (README.md, "Reference numbers").
  static constexpr double reference_s = 0.025;

  host_probe() : next_(std::size_t{1} << 21) {
    // Shuffle the slots, then link each to the next in shuffled order: one
    // cycle through every slot, in an order the prefetcher cannot follow.
    std::vector<std::uint32_t> order(next_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(order[i], order[(s >> 33) % (i + 1)]);
    }
    for (std::size_t i = 0; i < order.size(); ++i)
      next_[order[i]] = order[(i + 1) % order.size()];
  }

  /// Seconds of the fastest of three 200 000-step chases.
  [[nodiscard]] double seconds() {
    double best = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
      const clock::time_point t0 = clock::now();
      std::uint32_t p = static_cast<std::uint32_t>(pass);
      for (int i = 0; i < 200000; ++i) p = next_[p];
      sink_ = sink_ + p;
      const double s = seconds_since(t0);
      if (pass == 0 || s < best) best = s;
    }
    return best;
  }

 private:
  std::vector<std::uint32_t> next_;
  volatile std::uint32_t sink_ = 0;
};

solve_sample timed_solve(bench_workload& w, obs::tracer* tracer) {
  const double cpu0 = process_cpu_seconds();
  const clock::time_point t0 = clock::now();
  {
    const obs::span root(tracer, "solve");
    w.solve(tracer);
  }
  return {seconds_since(t0), process_cpu_seconds() - cpu0};
}

}  // namespace

int run(const run_options& opt) {
  const clock::time_point process_start = clock::now();
  std::unique_ptr<bench_workload> w = make_workload(opt);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  checks c;
  metric_map metrics;
  try {
    // Every round sets up (inputs from the seed, warm-up), solves and
    // checks; traced runs add a traced solve. The speed of a shared host
    // drifts by up to 1.4x, from round to round and for minutes at a time,
    // so each round's timings are scaled by host_probe::reference_s over
    // the probe time around the solve, and the end-to-end metrics are the
    // medians of the scaled rounds (see README.md, "Noise").
    host_probe probe;
    std::vector<double> setup_s, wall, cpu, scale, traced_wall;
    double best_traced = 0.0, coverage = 0.0;
    metric_map layers;
    obs::tracer best_trace;
    clock::time_point t = process_start;  // the first set-up pays start-up
    const clock::time_point loop_start = clock::now();
    do {
      w->setup();
      setup_s.push_back(seconds_since(t));
      const double probe_before = probe.seconds();
      const solve_sample s = timed_solve(*w, nullptr);
      scale.push_back(host_probe::reference_s /
                      (0.5 * (probe_before + probe.seconds())));
      wall.push_back(s.wall_s);
      cpu.push_back(s.cpu_s);
      w->check(c);
      if (opt.trace) {
        obs::tracer tracer;
        const double traced = timed_solve(*w, &tracer).wall_s;
        w->check(c);
        if (traced_wall.empty() || traced < best_traced) {
          best_traced = traced;
          coverage = solve_coverage(tracer);
          layers.clear();
          w->layer_metrics(tracer, layers);
          best_trace = std::move(tracer);
        }
        traced_wall.push_back(traced);
      }
      t = clock::now();
    } while (seconds_since(loop_start) < opt.seconds);

    const auto scaled_median = [&](const std::vector<double>& raw) {
      std::vector<double> scaled(raw.size());
      for (std::size_t i = 0; i < raw.size(); ++i)
        scaled[i] = raw[i] * scale[i];
      return median(scaled);
    };
    const double solve_s = scaled_median(wall);
    std::fprintf(stderr, "%s: %zu rounds, %.6g %s per solve; raw solve_s",
                 opt.workload.c_str(), wall.size(), w->work_units(),
                 w->work_unit_name());
    for (double s : wall) std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "; host scale");
    for (double s : scale) std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "; raw median %.4f, scaled median %.4f\n",
                 median(wall), solve_s);
    if (!opt.trace) {
      metrics["solve_s"] = {solve_s, "s"};
      metrics["setup_s"] = {scaled_median(setup_s), "s"};
      metrics["throughput"] = {w->work_units() / solve_s, "1/s"};
      metrics["cpu_s"] = {scaled_median(cpu), "s"};
      metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    } else {
      // Per-layer values come from the fastest traced solve and, like it,
      // are raw wall times.
      metrics = layers;
      metrics["trace.solve_s"] = {best_traced, "s"};
      metrics["trace.overhead_s"] = {
          best_traced - *std::min_element(wall.begin(), wall.end()), "s"};
      metrics["trace.coverage"] = {coverage, "ratio"};
      w->extra_trace(best_trace, metrics, c);
      if (!opt.trace_out.empty()) {
        obs::metrics_registry reg;
        for (const auto& [name, m] : metrics) reg.set_gauge(name, m.value);
        record_self_times(best_trace, reg);
        obs::write_metrics_file(opt.trace_out, reg.snapshot(),
                                best_trace.spans());
      }
    }
  } catch (const std::exception& e) {
    c.fail_all(e.what());
    print_result(c, metrics);
    return 1;
  }
  print_result(c, metrics);
  return 0;
}

}  // namespace perfbench
