#pragma once
// Minimal command-line option parsing for bench/example binaries.
//
// Supported syntax:  --name value | --name=value | --flag
// Unknown options, stray arguments and malformed numbers throw, so typos
// in sweep scripts fail loudly.

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
  /// Unknown options throw std::runtime_error naming the known options;
  /// an argument that is neither an option nor an option's value throws
  /// "unexpected argument".
  Cli(int argc, const char* const* argv,
      std::map<std::string, std::string> defaults);

  /// Merges the options every sweep-style bench shares into `defaults`
  /// (without overriding caller-provided entries):
  ///   --jobs N     worker threads for the experiment engine
  ///                ("auto" = hardware concurrency; results are
  ///                bit-identical for any value)
  ///   --csv PATH   write aggregated cells as CSV (.json for JSON)
  ///   --shard i/n  execute only slice i of an n-way deterministic job
  ///                partition (cluster fan-out; pair with --cache)
  ///   --cache DIR  campaign store: skip jobs already recorded under
  ///                DIR, append fresh results as they finish
  ///   --cache-compact
  ///                before loading, rewrite the store in place: dedupe
  ///                re-run jobs, drop stale-fingerprint records
  ///                (requires --cache; composes with --merge; refuses
  ///                while another writer process is live)
  ///   --merge      fold the complete result from the store alone
  ///                (combines shard outputs; requires --cache)
  ///   --progress   report jobs-done/total and ETA to stderr
  ///   --progress-interval S
  ///                seconds between progress heartbeat lines (default
  ///                0.5; <= 0 prints on every finished job)
  ///   --trace-out PATH
  ///                write a Chrome-trace-event JSON of the campaign
  ///                (per-job spans per worker, fail markers) — load in
  ///                Perfetto or chrome://tracing; purely observational
  ///   --keep-going record failed jobs as error rows and finish the
  ///                shard instead of aborting
  static std::map<std::string, std::string> with_bench_defaults(
      std::map<std::string, std::string> defaults);

  /// Resolved worker-thread count from --jobs: "auto" (or "0") maps to
  /// the hardware concurrency; anything else must be an integer in
  /// [1, 4096] or std::runtime_error is thrown.
  int jobs() const;

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  /// Numeric getters parse the whole value strictly (util::parse_int,
  /// parse_u64, parse_double) and throw std::runtime_error
  /// "option --NAME expects ..., got '...'" otherwise.
  long long get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;
  std::uint64_t get_u64(const std::string& name) const;

  /// Renders "--key value" pairs of the effective configuration, for
  /// reproducibility banners at the top of each bench's output. Options
  /// whose value is empty (unset optional settings) are left out.
  std::string summary() const;

  /// Makes summary() print `value` for option `key` — for drivers whose
  /// presets (--full, --smoke) replace a parsed count, so the printed
  /// config shows what ran. config_summary(), the campaign cache key,
  /// keeps the parsed value, so existing caches stay valid.
  void show_effective(const std::string& key, long long value);

  /// summary() minus the engine/campaign flags (--jobs, --csv, --shard,
  /// --cache, --cache-compact, --merge, --progress, --progress-interval,
  /// --trace-out, --keep-going, --list-scenarios) and minus options
  /// whose value is empty (unset optional settings, e.g. unused
  /// --scenario.FIELD overrides) — exactly the options that can alter
  /// job outputs. Feed it to ExperimentSpec::config so the campaign
  /// store is invalidated when any driver parameter changes, while
  /// sharded, resumed and differently-threaded runs of one sweep still
  /// share a fingerprint.
  std::string config_summary() const;

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, std::string> shown_;  ///< show_effective overrides
  std::vector<std::string> flags_;
};

}  // namespace bas::util
