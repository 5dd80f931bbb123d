#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

// --- percentiles -----------------------------------------------------------

bool tail_supported(std::size_t n, double p) {
  // Samples strictly beyond the p-th percentile of n values: the ones
  // ranked above p% of the sample.
  const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
  return std::floor(beyond + 1e-9) >= static_cast<double>(kTailSamplesBeyond);
}

std::optional<double> percentile_if_supported(std::vector<double> values,
                                              double p) {
  if (values.empty()) return std::nullopt;
  if (p > 50.0 && !tail_supported(values.size(), p)) return std::nullopt;
  return mtperf::percentile(std::move(values), p);
}

std::optional<double> mean(const std::vector<double>& values) {
  if (values.empty()) return std::nullopt;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// --- spans -----------------------------------------------------------------

std::int64_t Tracer::begin(std::string name, std::int64_t parent,
                           std::uint64_t request) {
  const std::int64_t t = now_ns();
  spans_.push_back(Span{std::move(name), t, t, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) continue;
    const std::int64_t lo = std::max(s.start_ns, spans[p].start_ns);
    const std::int64_t hi = std::min(s.end_ns, spans[p].end_ns);
    if (hi > lo) children[p].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

// --- request ledger --------------------------------------------------------

namespace {

constexpr std::int8_t kUnsent = -1;

/// Parse the unsigned integer right after `key` in `line`.
std::optional<std::uint64_t> number_after(std::string_view line,
                                          std::string_view key) {
  const std::size_t pos = line.find(key);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t i = pos + key.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  std::uint64_t v = 0;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
  }
  return v;
}

}  // namespace

ResponseInfo classify_response(std::string_view line) {
  ResponseInfo info;
  info.id = number_after(line, "\"id\":");
  // Keys are dumped in sorted order, so "error" leads an error line and
  // "bottleneck" leads a result line; anything else is malformed.
  if (line.rfind("{\"error\":", 0) == 0) {
    info.outcome = line.find("\"overloaded\"") != std::string_view::npos
                       ? Outcome::kOverloaded
                       : Outcome::kError;
    return info;
  }
  if (line.rfind("{\"bottleneck\":", 0) != 0) {
    info.outcome = Outcome::kError;
    return info;
  }
  info.outcome = Outcome::kOk;
  info.cache_hit = line.find("\"cache_hit\":true") != std::string_view::npos;
  return info;
}

void Ledger::sent(std::uint64_t id) {
  if (id >= state_.size()) state_.resize(id + 1, kUnsent);
  if (state_[id] != kUnsent) {
    ++duplicates_;  // the same id sent twice is a generator bug; count it
    return;
  }
  state_[id] = static_cast<std::int8_t>(Outcome::kPending);
  outcomes_.push_back(id);
}

bool Ledger::received(std::uint64_t id, Outcome outcome) {
  if (id >= state_.size() || state_[id] == kUnsent ||
      state_[id] != static_cast<std::int8_t>(Outcome::kPending)) {
    ++duplicates_;
    return false;
  }
  state_[id] = static_cast<std::int8_t>(outcome);
  return true;
}

void Ledger::wrong(std::uint64_t id) {
  if (id < state_.size() &&
      state_[id] == static_cast<std::int8_t>(Outcome::kOk)) {
    ++wrong_;
  }
}

std::size_t Ledger::count(Outcome o) const {
  std::size_t n = 0;
  for (const std::uint64_t id : outcomes_) {
    if (state_[id] == static_cast<std::int8_t>(o)) ++n;
  }
  return n;
}

std::uint64_t Ledger::ok() const { return count(Outcome::kOk) - wrong_; }
std::uint64_t Ledger::errors() const { return count(Outcome::kError); }
std::uint64_t Ledger::overloaded() const { return count(Outcome::kOverloaded); }
std::uint64_t Ledger::lost() const { return count(Outcome::kPending); }

std::uint64_t Ledger::failed() const {
  return errors() + overloaded() + lost() + duplicates_ + unmatched_ + wrong_;
}

double Ledger::failed_share() const {
  return outcomes_.empty() ? 0.0
                           : static_cast<double>(failed()) /
                                 static_cast<double>(outcomes_.size());
}

// --- open-loop schedule ----------------------------------------------------

OpenLoopClock::OpenLoopClock(std::int64_t start_ns, double rate_per_s,
                             std::uint64_t seed, double seconds)
    : start_ns_(start_ns) {
  mtperf::Xoshiro256StarStar rng(seed ^ 0x0A11C0C4ull);
  const double end = seconds * 1e9;
  double t = 0;
  while (true) {
    // Exponential gap with mean 1/rate, from a uniform in (0, 1].
    const double u =
        (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) * 1e9 / rate_per_s;
    if (t >= end) break;
    offsets_.push_back(static_cast<std::int64_t>(t));
  }
}

}  // namespace perfbench
