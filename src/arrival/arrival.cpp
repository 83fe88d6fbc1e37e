#include "arrival/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/text.hpp"

namespace bas::arrival {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTwoPi = 6.283185307179586476925286766559;



void require(bool ok, const std::string& what) {
  if (!ok) {
    throw std::invalid_argument("arrival: " + what);
  }
}

// ---- trace parsing ---------------------------------------------------

/// Splits `text` on newlines, then on ','/';' within a line; '#' starts
/// a comment. Every non-empty token must parse as a finite, non-negative
/// number. Returned times are sorted ascending.
std::vector<double> parse_trace_text(const std::string& text,
                                     const std::string& origin) {
  std::vector<double> times;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    for (char& c : line) {
      if (c == ',' || c == ';') {
        c = ' ';
      }
    }
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) {
      char* end = nullptr;
      const double value = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size() || !std::isfinite(value) ||
          value < 0.0) {
        throw std::invalid_argument(
            "arrival: trace " + origin + " has a bad release time '" + token +
            "' (need finite, non-negative numbers)");
      }
      times.push_back(value);
    }
  }
  if (times.empty()) {
    throw std::invalid_argument("arrival: trace " + origin +
                                " contains no release times");
  }
  std::sort(times.begin(), times.end());
  // Collapse tied timestamps (routine in measured logs): the simulator
  // keeps one instance per graph in flight, so a duplicate release
  // would only supersede its twin instantly and log a spurious
  // deadline miss — and ArrivalProcess promises strictly increasing
  // releases.
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

}  // namespace

std::vector<double> load_trace(const std::string& trace) {
  require(!trace.empty(),
          "trace-replay needs --scenario.arrival.trace (inline "
          "\"t0;t1;...\" or \"@file.csv\")");
  if (trace.front() != '@') {
    return parse_trace_text(trace, "(inline)");
  }
  const std::string path = trace.substr(1);
  static std::mutex mutex;
  static std::map<std::string, std::vector<double>> memo;
  std::lock_guard<std::mutex> lock(mutex);
  if (const auto it = memo.find(path); it != memo.end()) {
    return it->second;
  }
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument("arrival: cannot open trace file '" + path +
                                "'");
  }
  std::ostringstream content;
  content << file.rdbuf();
  auto times = parse_trace_text(content.str(), "'" + path + "'");
  memo.emplace(path, times);
  return times;
}

namespace {

// ---- models ----------------------------------------------------------

class Periodic final : public ArrivalProcess {
 public:
  explicit Periodic(double period_s) : period_s_(period_s) {}
  double next_release(double, util::Rng&) override {
    // Multiply, never accumulate: release k is the same double the
    // pre-subsystem simulator computed as released_count * period.
    return static_cast<double>(count_++) * period_s_;
  }
  std::string label() const override { return "periodic"; }

 private:
  double period_s_;
  std::uint64_t count_ = 0;
};

class PeriodicJitter final : public ArrivalProcess {
 public:
  PeriodicJitter(double period_s, double jitter_frac)
      : period_s_(period_s), jitter_s_(jitter_frac * period_s) {}
  double next_release(double, util::Rng& rng) override {
    const double nominal = static_cast<double>(count_++) * period_s_;
    return nominal + rng.uniform(0.0, jitter_s_);
  }
  std::string label() const override { return "periodic-jitter"; }

 private:
  double period_s_;
  double jitter_s_;
  std::uint64_t count_ = 0;
};

class Sporadic final : public ArrivalProcess {
 public:
  Sporadic(double period_s, double gap_frac)
      : period_s_(period_s), mean_gap_s_(gap_frac * period_s) {}
  double next_release(double prev_release, util::Rng& rng) override {
    if (prev_release < 0.0) {
      return 0.0;
    }
    const double gap =
        mean_gap_s_ > 0.0 ? rng.exponential(mean_gap_s_) : 0.0;
    return prev_release + period_s_ + gap;
  }
  std::string label() const override { return "sporadic"; }

 private:
  double period_s_;
  double mean_gap_s_;
};

class Poisson final : public ArrivalProcess {
 public:
  Poisson(double period_s, double rate_scale)
      : mean_gap_s_(period_s / rate_scale) {}
  double next_release(double prev_release, util::Rng& rng) override {
    const double start = prev_release < 0.0 ? 0.0 : prev_release;
    return start + rng.exponential(mean_gap_s_);
  }
  std::string label() const override { return "poisson"; }

 private:
  double mean_gap_s_;
};

/// Inhomogeneous Poisson by thinning (Lewis & Shedler): candidate gaps
/// are drawn from the homogeneous process at the rate ceiling and each
/// candidate survives with probability rate(t) / rate_max.
class Ippp final : public ArrivalProcess {
 public:
  Ippp(double period_s, const Params& p)
      : base_rate_(p.rate_scale / period_s),
        diurnal_amp_(p.diurnal_amp),
        diurnal_period_s_(p.diurnal_period_s),
        burst_factor_(p.burst_period_s > 0.0 ? p.burst_factor : 1.0),
        burst_period_s_(p.burst_period_s),
        burst_on_s_(p.burst_period_s * p.burst_duty) {
    rate_max_ = base_rate_ * (1.0 + diurnal_amp_) * burst_factor_;
  }

  double rate_at(double t) const {
    double rate = base_rate_ *
                  (1.0 + diurnal_amp_ * std::sin(kTwoPi * t /
                                                 diurnal_period_s_));
    if (burst_period_s_ > 0.0 &&
        std::fmod(t, burst_period_s_) < burst_on_s_) {
      rate *= burst_factor_;
    }
    return rate;
  }

  double next_release(double prev_release, util::Rng& rng) override {
    double t = prev_release < 0.0 ? 0.0 : prev_release;
    // Acceptance probability is bounded below by rate_min / rate_max
    // over any burst window, so this terminates fast for the validated
    // parameter ranges; the cap turns a degenerate rate function into a
    // loud error instead of a hang.
    for (int draws = 0; draws < 1000000; ++draws) {
      t += rng.exponential(1.0 / rate_max_);
      if (rng.uniform() * rate_max_ <= rate_at(t)) {
        return t;
      }
    }
    throw std::logic_error("arrival: ippp thinning failed to accept (rate "
                           "function degenerate?)");
  }
  std::string label() const override { return "ippp"; }

 private:
  double base_rate_;
  double diurnal_amp_;
  double diurnal_period_s_;
  double burst_factor_;
  double burst_period_s_;
  double burst_on_s_;
  double rate_max_;
};

class TraceReplay final : public ArrivalProcess {
 public:
  TraceReplay(double period_s, std::vector<double> times, bool repeat)
      : times_(std::move(times)),
        repeat_(repeat),
        cycle_s_(times_.back() + period_s) {}
  double next_release(double, util::Rng&) override {
    if (cursor_ == times_.size()) {
      if (!repeat_) {
        return kInf;
      }
      cursor_ = 0;
      offset_s_ += cycle_s_;
    }
    return offset_s_ + times_[cursor_++];
  }
  std::string label() const override { return "trace-replay"; }

 private:
  std::vector<double> times_;
  bool repeat_;
  double cycle_s_;
  std::size_t cursor_ = 0;
  double offset_s_ = 0.0;
};

// ---- shared validation ----------------------------------------------

void validate_params(const Spec& spec) {
  const Params& p = spec.params;
  if (spec.model == "periodic-jitter") {
    require(p.jitter_frac >= 0.0 && p.jitter_frac < 1.0,
            "jitter_frac must lie in [0, 1), got " + util::format_g17(p.jitter_frac));
  } else if (spec.model == "sporadic") {
    require(p.gap_frac >= 0.0,
            "gap_frac must be >= 0, got " + util::format_g17(p.gap_frac));
  } else if (spec.model == "poisson") {
    require(p.rate_scale > 0.0,
            "rate_scale must be > 0, got " + util::format_g17(p.rate_scale));
  } else if (spec.model == "ippp") {
    require(p.rate_scale > 0.0,
            "rate_scale must be > 0, got " + util::format_g17(p.rate_scale));
    require(p.diurnal_amp >= 0.0 && p.diurnal_amp <= 1.0,
            "diurnal_amp must lie in [0, 1], got " + util::format_g17(p.diurnal_amp));
    require(p.diurnal_period_s > 0.0, "diurnal_period_s must be > 0, got " +
                                          util::format_g17(p.diurnal_period_s));
    require(p.burst_period_s >= 0.0, "burst_period_s must be >= 0, got " +
                                         util::format_g17(p.burst_period_s));
    if (p.burst_period_s > 0.0) {
      require(p.burst_factor >= 1.0, "burst_factor must be >= 1, got " +
                                         util::format_g17(p.burst_factor));
      require(p.burst_duty > 0.0 && p.burst_duty <= 1.0,
              "burst_duty must lie in (0, 1], got " + util::format_g17(p.burst_duty));
    }
  }
  // trace-replay validates by loading the trace in make()/fingerprint().
}

}  // namespace

const std::vector<std::string>& labels() {
  static const std::vector<std::string> names{
      "periodic", "periodic-jitter", "sporadic",
      "poisson",  "ippp",            "trace-replay"};
  return names;
}

std::unique_ptr<ArrivalProcess> make(const Spec& spec, double period_s) {
  require(period_s > 0.0, "period must be > 0, got " + util::format_g17(period_s));
  validate_params(spec);
  const Params& p = spec.params;
  if (spec.model == "periodic") {
    return std::make_unique<Periodic>(period_s);
  }
  if (spec.model == "periodic-jitter") {
    return std::make_unique<PeriodicJitter>(period_s, p.jitter_frac);
  }
  if (spec.model == "sporadic") {
    return std::make_unique<Sporadic>(period_s, p.gap_frac);
  }
  if (spec.model == "poisson") {
    return std::make_unique<Poisson>(period_s, p.rate_scale);
  }
  if (spec.model == "ippp") {
    return std::make_unique<Ippp>(period_s, p);
  }
  if (spec.model == "trace-replay") {
    return std::make_unique<TraceReplay>(period_s, load_trace(p.trace),
                                         p.trace_repeat);
  }
  throw std::invalid_argument("unknown arrival model '" + spec.model +
                              "' (known: " + util::join(labels()) + ")");
}

void validate(const Spec& spec) { make(spec, 1.0); }

std::string fingerprint(const Spec& spec) {
  validate_params(spec);
  const Params& p = spec.params;
  std::string out = "arrival=" + spec.model;
  if (spec.model == "periodic") {
    return out;
  }
  if (spec.model == "periodic-jitter") {
    return out + " jitter=" + util::format_g17(p.jitter_frac);
  }
  if (spec.model == "sporadic") {
    return out + " gap=" + util::format_g17(p.gap_frac);
  }
  if (spec.model == "poisson") {
    return out + " rate-scale=" + util::format_g17(p.rate_scale);
  }
  if (spec.model == "ippp") {
    // The gated knobs enter only while their gate is live: with
    // diurnal_amp == 0 (or burst_period_s == 0) the rate function never
    // reads diurnal_period_s (burst_factor/burst_duty), so changing
    // them must not invalidate campaign caches.
    out += " rate-scale=" + util::format_g17(p.rate_scale) +
           " diurnal-amp=" + util::format_g17(p.diurnal_amp);
    if (p.diurnal_amp > 0.0) {
      out += " diurnal-period=" + util::format_g17(p.diurnal_period_s);
    }
    out += " burst-period=" + util::format_g17(p.burst_period_s);
    if (p.burst_period_s > 0.0) {
      out += " burst-factor=" + util::format_g17(p.burst_factor) +
             " burst-duty=" + util::format_g17(p.burst_duty);
    }
    return out;
  }
  if (spec.model == "trace-replay") {
    // Hash the parsed times, not the param string: "@file" traces then
    // invalidate campaign caches when the file's contents change.
    const auto times = load_trace(p.trace);
    std::uint64_t hash = util::Rng::mix(times.size());
    for (const double t : times) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &t, sizeof bits);
      hash = util::Rng::hash_combine(hash, bits);
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return out + " trace-points=" + std::to_string(times.size()) +
           " trace-hash=" + hex + " repeat=" + (p.trace_repeat ? "1" : "0");
  }
  throw std::invalid_argument("unknown arrival model '" + spec.model +
                              "' (known: " + util::join(labels()) + ")");
}

}  // namespace bas::arrival
