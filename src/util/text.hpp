#pragma once
// Small shared text helpers used across layers (arrival, scenario,
// exp, CLI): label-list joining for "unknown X (known: ...)" error
// messages, the repo's canonical %.17g double rendering and the strict
// numeric parses every option goes through. One definition each keeps
// error-message, serialization and parsing rules from drifting between
// hand-rolled copies.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bas::util {

/// ", "-joined items — the error-message idiom for listing valid
/// registry labels.
std::string join(const std::vector<std::string>& items);

/// %.17g: the shortest fixed precision that round-trips every finite
/// double. The canonical rendering for fingerprints and machine
/// outputs (exp::format_double forwards here; the cache/sink
/// byte-identity contracts depend on them never diverging).
std::string format_g17(double value);

/// Strict numeric parses: the whole of `text` must be one number in
/// range, so "1.5", "1e3" or "4x" are not integers and "abc" is not a
/// number. Return std::nullopt on rejection; each caller throws its own
/// "expects ..., got '...'" error naming the option.
std::optional<long long> parse_int(const std::string& text);
/// As parse_int, but also rejects any '-', which std::stoull would
/// otherwise wrap ("-5" -> 2^64 - 5).
std::optional<std::uint64_t> parse_u64(const std::string& text);
std::optional<double> parse_double(const std::string& text);

}  // namespace bas::util
