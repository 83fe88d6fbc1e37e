#pragma once
// Minimal command-line option parsing for bench/example binaries.
//
// Supported syntax:  --name value | --name=value | --flag | --help
// Unknown options, stray arguments and malformed numbers throw
// std::invalid_argument, so typos in sweep scripts fail loudly; the
// drivers' shared entry point (exp::run_main) turns that into exit 2.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bas::util {

class Cli {
 public:
  /// Parses argv. `defaults` maps option name (without dashes) to a
  /// default value. An option whose default is exactly "false" or
  /// "true" is a boolean flag: bare `--name` sets it to "true" and it
  /// never consumes the following argument (use `--name=false` to
  /// override explicitly). Every other option requires a value.
  /// `--help` is recognised anywhere and only sets help_requested(); it
  /// never enters the option values, so summary() ignores it.
  /// Unknown options throw std::invalid_argument naming the known
  /// options; an argument that is neither an option nor an option's
  /// value throws "unexpected argument".
  Cli(int argc, const char* const* argv,
      std::map<std::string, std::string> defaults);

  /// True when `--help` was passed.
  bool help_requested() const { return help_; }

  /// "--a --b ...": the declared option names, as the unknown-option
  /// error lists them.
  static std::string known_options(
      const std::map<std::string, std::string>& options);

  /// One line per declared option with its default — the `--help` text.
  static std::string usage(const std::map<std::string, std::string>& defaults);

  /// Merges the options every sweep-style bench shares into `defaults`
  /// (without overriding caller-provided entries):
  ///   --jobs N     worker threads for the experiment engine
  ///                ("auto" = hardware concurrency; results are
  ///                bit-identical for any value)
  ///   --csv PATH   write aggregated cells as CSV
  ///   --cache DIR  campaign store: skip jobs already recorded under
  ///                DIR, append fresh results as they finish
  ///   --merge      fold the complete result from the store alone,
  ///                executing nothing (requires --cache)
  ///   --progress   report jobs-done/total and ETA to stderr, at most
  ///                one line per half second
  ///   --trace-out PATH
  ///                write a Chrome-trace-event JSON of the campaign
  ///                (per-job spans per worker, fail markers) — load in
  ///                Perfetto or chrome://tracing; purely observational
  ///   --keep-going record failed jobs as error rows and finish the
  ///                run instead of aborting
  static std::map<std::string, std::string> with_bench_defaults(
      std::map<std::string, std::string> defaults);

  /// Resolved worker-thread count from --jobs: "auto" (or "0") maps to
  /// the hardware concurrency; anything else must be an integer in
  /// [1, 4096] or std::invalid_argument is thrown.
  int jobs() const;

  bool has(const std::string& name) const;
  /// The option's value; an undeclared name is a driver bug and throws
  /// std::logic_error.
  std::string get(const std::string& name) const;
  /// Numeric getters parse the whole value strictly (util::parse_int,
  /// parse_u64, parse_double) and throw std::invalid_argument
  /// "option --NAME expects ..., got '...'" otherwise; get_int also
  /// rejects a value outside `int` instead of wrapping it.
  int get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;
  std::uint64_t get_u64(const std::string& name) const;

  /// Renders "--key value" pairs of the effective configuration, for
  /// reproducibility banners at the top of each bench's output. Options
  /// whose value is empty (unset optional settings) are left out.
  std::string summary() const;

  /// summary() minus the engine/campaign flags (--jobs, --csv, --cache,
  /// --merge, --progress, --trace-out, --keep-going,
  /// --list-scenarios) and minus options
  /// whose value is empty (unset optional settings, e.g. unused
  /// --scenario.FIELD overrides) — exactly the options that can alter
  /// job outputs. Feed it to ExperimentSpec::config so the campaign
  /// store is invalidated when any driver parameter changes, while
  /// resumed, merged and differently-threaded runs of one sweep still
  /// share a fingerprint.
  std::string config_summary() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> flags_;
  bool help_ = false;
};

}  // namespace bas::util
