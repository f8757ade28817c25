// Experiment: a declarative list of independent simulation trials executed
// through the shard-parallel runner.
//
// A driver describes each trial as (name, seed, factory-function); run()
// fans the trials out across worker threads and returns the results in
// add() order. Determinism contract: a trial function must construct every
// stateful object it uses (Engine, Network, testbed, generators) locally
// and take all randomness from spec.seed — then results are byte-identical
// for any --jobs value, because each result is computed by exactly one
// single-threaded simulation and written to a slot owned by its index.
//
// Sidecars: run() also writes every sidecar the options request, from the
// results in add() order, so they are byte-identical for any --jobs too.
// What a driver can write is read from its Result type: a `metrics`
// (obs::MetricsSnapshot), `health` (obs::HealthReport), `flight_dumps`
// (std::vector<obs::FlightDump>) or `trace` (shared_ptr<TraceRecorder>)
// member. A requested sidecar the type cannot carry is an error (exit 2)
// raised before any trial runs; the TrialSpec tells each trial what to
// collect.
//
// Drivers accept `--jobs N` (or `-jN`) and the sidecar flags via
// parse_experiment_options().
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/parallel_runner.hpp"

namespace aqm::core {

struct TrialSpec {
  std::string name;        // stable label, used by drivers when printing
  std::uint64_t seed = 0;  // sole randomness input of the trial
  std::size_t index = 0;   // position in the experiment (assigned by add())
  // What to collect, filled by run() from the requested sidecars:
  bool metrics = false;    // --metrics: fill Result::metrics
  bool telemetry = false;  // --slo or --flight: attach a TelemetryHub and
                           // fill Result::health / Result::flight_dumps
  bool trace = false;      // --trace, trial 0 only: fill Result::trace
};

struct ExperimentOptions {
  /// Worker threads; 0 = one per hardware thread, 1 = inline (no threads).
  unsigned jobs = 1;
  /// Print one '.' to stderr as each trial finishes (multi-trial runs only).
  bool progress = true;
  /// Non-empty: run() writes trial 0's Chrome trace-event JSON (load in
  /// Perfetto / chrome://tracing) here. Needs Result::trace.
  std::string trace_path;
  /// Non-empty: run() writes the per-trial + merged metrics sidecar JSON
  /// here. Needs Result::metrics.
  std::string metrics_path;
  /// Non-empty: run() writes the per-trial + merged health-event sidecar
  /// JSON here. Needs Result::health.
  std::string slo_path;
  /// Non-empty: run() writes the flight-recorder breach dump sidecar JSON
  /// here. Needs Result::flight_dumps.
  std::string flight_path;
};

/// Parses and strips `--jobs N`, `--jobs=N`, `-jN`, `-j N`,
/// `--trace FILE`, `--trace=FILE`, `--metrics FILE`, `--metrics=FILE`,
/// `--slo FILE`, `--slo=FILE`, `--flight FILE` and `--flight=FILE`
/// from an argv-style array (argc drops to 1). An unrecognised argument
/// or an unparsable value prints an error and exits with status 2.
ExperimentOptions parse_experiment_options(int& argc, char** argv);

/// For programs that take no arguments: any argument prints an error and
/// exits with status 2.
void reject_arguments(int argc, char** argv);

/// Decorrelates a per-trial seed from an experiment base seed and a trial
/// index (splitmix64 finalizer), so sweeps get independent streams without
/// hand-picking constants.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

namespace detail {
void report_trial_done(bool enabled);
/// Exits 2 naming `flag` if `path` requests a sidecar the result type
/// cannot carry.
void require_sidecar(const std::string& path, const char* flag, bool carried);
/// Reports a sidecar on stderr; exits 1 if it could not be written.
void report_sidecar(bool written, const char* what, const std::string& path);

// The sidecars a Result type can carry, read from its members.
template <typename R>
concept HasMetrics = std::same_as<decltype(R::metrics), obs::MetricsSnapshot>;
template <typename R>
concept HasHealth = std::same_as<decltype(R::health), obs::HealthReport>;
template <typename R>
concept HasFlightDumps = std::same_as<decltype(R::flight_dumps), std::vector<obs::FlightDump>>;
template <typename R>
concept HasTrace = std::same_as<decltype(R::trace), std::shared_ptr<obs::TraceRecorder>>;
}  // namespace detail

template <typename Result>
class Experiment {
 public:
  using TrialFn = std::function<Result(const TrialSpec&)>;

  /// Registers a trial. Trials run in any order but results keep add() order.
  void add(std::string name, std::uint64_t seed, TrialFn fn) {
    TrialSpec spec;
    spec.name = std::move(name);
    spec.seed = seed;
    spec.index = trials_.size();
    trials_.push_back(Trial{std::move(spec), std::move(fn)});
  }

  [[nodiscard]] std::size_t size() const { return trials_.size(); }
  [[nodiscard]] const TrialSpec& spec(std::size_t i) const { return trials_[i].spec; }

  /// Runs every trial, writes the requested sidecars and returns the
  /// results in add() order. Each worker writes only the slot of the trial
  /// index it pulled, so the merge needs no locking and the output is
  /// independent of the worker count.
  [[nodiscard]] std::vector<Result> run(const ExperimentOptions& opts = {}) const {
    detail::require_sidecar(opts.trace_path, "--trace", detail::HasTrace<Result>);
    detail::require_sidecar(opts.metrics_path, "--metrics", detail::HasMetrics<Result>);
    detail::require_sidecar(opts.slo_path, "--slo", detail::HasHealth<Result>);
    detail::require_sidecar(opts.flight_path, "--flight", detail::HasFlightDumps<Result>);

    std::vector<std::optional<Result>> slots(trials_.size());
    const sim::ParallelRunner runner(opts.jobs);
    const bool progress = opts.progress && trials_.size() > 1;
    runner.run(trials_.size(), [&](std::size_t i) {
      TrialSpec spec = trials_[i].spec;
      spec.metrics = !opts.metrics_path.empty();
      spec.telemetry = !opts.slo_path.empty() || !opts.flight_path.empty();
      spec.trace = i == 0 && !opts.trace_path.empty();
      slots[i] = trials_[i].fn(spec);
      detail::report_trial_done(progress);
    });
    std::vector<Result> out;
    out.reserve(slots.size());
    for (auto& slot : slots) out.push_back(std::move(*slot));

    if constexpr (detail::HasMetrics<Result>) {
      write(opts.metrics_path, "metrics", obs::write_metrics_sidecar_file, out, &Result::metrics);
    }
    if constexpr (detail::HasHealth<Result>) {
      write(opts.slo_path, "health events", obs::write_health_sidecar_file, out, &Result::health);
    }
    if constexpr (detail::HasFlightDumps<Result>) {
      write(opts.flight_path, "flight dumps", obs::write_flight_sidecar_file, out,
            &Result::flight_dumps);
    }
    if constexpr (detail::HasTrace<Result>) {
      if (!opts.trace_path.empty()) {
        const obs::TraceRecorder untraced;
        const obs::TraceRecorder* trace = out.empty() ? nullptr : out[0].trace.get();
        detail::report_sidecar(
            (trace != nullptr ? *trace : untraced).write_chrome_json_file(opts.trace_path),
            "trace", opts.trace_path);
      }
    }
    return out;
  }

 private:
  struct Trial {
    TrialSpec spec;
    TrialFn fn;
  };

  /// Writes `path` (if requested) from (trial name, result member) pairs
  /// in add() order.
  template <typename Named, typename R, typename Member>
  void write(const std::string& path, const char* what,
             bool (*writer)(const std::string&, const std::vector<Named>&),
             const std::vector<R>& results, Member R::*member) const {
    if (path.empty()) return;
    std::vector<Named> named;
    named.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      named.push_back({trials_[i].spec.name, results[i].*member});
    }
    detail::report_sidecar(writer(path, named), what, path);
  }

  std::vector<Trial> trials_;
};

}  // namespace aqm::core
