// The benchmark's own measurement logic, kept apart from the load
// generator so the tests in perfbench/tests can exercise it directly:
//
//   * the percentile rule — a tail percentile is reported only when at
//     least ten samples lie beyond it;
//   * spans and their self time — a span's duration minus the part of its
//     interval its child spans cover;
//   * the request ledger — every response matched to its request by id,
//     with lost, duplicated, error, shed and wrong answers counted as
//     failed operations;
//   * the open-loop clock — request i is due at an absolute time fixed
//     before the window opens, so a stalled sender never shifts later due
//     times.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide epoch taken at first use.
std::int64_t now_ns();

// --- percentiles -----------------------------------------------------------

/// Samples needed beyond a tail percentile before it is reported.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// True when a sample of `n` values has at least kTailSamplesBeyond values
/// beyond the `p`-th percentile (p in [0, 100]).
bool tail_supported(std::size_t n, double p);

/// The type-7 `p`-th percentile of `values`, or nullopt when the sample is
/// empty or, for p > 50, too small by tail_supported.
std::optional<double> percentile_if_supported(std::vector<double> values,
                                              double p);

/// Mean of `values` (nullopt when empty).
std::optional<double> mean(const std::vector<double>& values);

// --- spans -----------------------------------------------------------------

inline constexpr std::int64_t kNoParent = -1;

/// One timed call into a layer: what was called, when, on whose behalf
/// (`request`, the wire id), and which span caused it (`parent`, an index
/// into the same span vector, or kNoParent).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = kNoParent;
  std::uint64_t request = 0;

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// In-memory span recorder for one thread; spans are written out only
/// when the benchmark ends.
class Tracer {
 public:
  /// Open a span now; returns its index for end() and as a parent.
  std::int64_t begin(std::string name, std::int64_t parent = kNoParent,
                     std::uint64_t request = 0);
  void end(std::int64_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the parent's interval.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

// --- request ledger --------------------------------------------------------

enum class Outcome : std::uint8_t {
  kPending,     ///< sent, no response yet (lost if it stays so)
  kOk,          ///< a result line
  kError,       ///< an {"error": ...} line
  kOverloaded,  ///< shed by admission control
};

/// The fields the benchmark reads off a response line without a full JSON
/// parse (the wire format is the repository's own: one object per line,
/// keys in sorted order, "error" first on error lines).
struct ResponseInfo {
  std::optional<std::uint64_t> id;
  Outcome outcome = Outcome::kError;
  bool cache_hit = false;
};

ResponseInfo classify_response(std::string_view line);

/// Matches responses to requests by id and counts failed operations:
/// errors, overload rejections, lost (never answered), duplicated or
/// unknown-id lines, and answers a correctness check found wrong.
class Ledger {
 public:
  /// Register request `id` as sent.
  void sent(std::uint64_t id);
  /// Record a response; returns false for a duplicate or unknown id.
  bool received(std::uint64_t id, Outcome outcome);
  /// A response that never names a request id.
  void unmatched() { ++unmatched_; }
  /// Mark an answered request as wrong (its answer failed verification).
  void wrong(std::uint64_t id);

  std::uint64_t attempted() const noexcept { return outcomes_.size(); }
  std::uint64_t ok() const;
  std::uint64_t errors() const;
  std::uint64_t overloaded() const;
  std::uint64_t lost() const;
  std::uint64_t duplicates() const noexcept { return duplicates_; }
  std::uint64_t unmatched_lines() const noexcept { return unmatched_; }
  std::uint64_t wrong_answers() const noexcept { return wrong_; }
  /// errors + overloaded + lost + duplicates + unmatched + wrong.
  std::uint64_t failed() const;
  /// failed() / attempted() (0 when nothing was sent).
  double failed_share() const;

 private:
  std::size_t count(Outcome o) const;
  // Ids are dense small integers in this benchmark; a flat vector keyed by
  // id keeps lookups free of hashing.  kUnsent marks holes.
  std::vector<std::int8_t> state_;
  std::vector<std::uint64_t> outcomes_;  ///< ids in send order
  std::uint64_t duplicates_ = 0;
  std::uint64_t unmatched_ = 0;
  std::uint64_t wrong_ = 0;
};

// --- open-loop schedule ----------------------------------------------------

/// Absolute send schedule of an open-loop generator: Poisson arrivals at a
/// fixed rate (independent users), drawn from a seed before the window
/// opens.  Request i is due at start + offset_i, where the offsets depend
/// only on (rate, seed) — never on when earlier requests were actually
/// sent — so a stalled sender cannot shift later due times.
class OpenLoopClock {
 public:
  /// The arrivals due within [start, start + seconds).
  OpenLoopClock(std::int64_t start_ns, double rate_per_s, std::uint64_t seed,
                double seconds);

  std::int64_t due_ns(std::size_t i) const noexcept {
    return start_ns_ + offsets_[i];
  }
  std::size_t size() const noexcept { return offsets_.size(); }

 private:
  std::int64_t start_ns_;
  std::vector<std::int64_t> offsets_;
};

}  // namespace perfbench
