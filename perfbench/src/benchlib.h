// perfbench library: the pure, testable parts of the blockserver benchmark.
//
//   * seeded request schedules — a weighted "deck" over the base corpus
//     (§6.2 class shares, stratified so every run sees nearly the same size
//     mix), Zipf rank draws, and the open-loop Poisson arrival schedule;
//   * the COM tag that makes every put's bytes distinct;
//   * percentile selection (highest percentile with >= 10 samples beyond);
//   * span records and self-time arithmetic for the traced run.
//
// Everything here is a pure function of its arguments, so the schedules
// replay exactly from a seed (tests/benchlib_test.cpp checks that).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// ---- counter-based randomness ----------------------------------------------

// SplitMix64 finalizer: a bijective 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The i-th draw of stream `seed`, independent of every other index.
inline std::uint64_t draw64(std::uint64_t seed, std::uint64_t i) {
  return mix64(mix64(seed) ^ mix64(i + 0x632be59bd9b4e019ull));
}

// Uniform in [0, 1) with 53 bits.
inline double draw_unit(std::uint64_t seed, std::uint64_t i) {
  return static_cast<double>(draw64(seed, i) >> 11) * 0x1.0p-53;
}

// Seeded Fisher-Yates over [0, n).
inline std::vector<std::uint32_t> permutation(std::size_t n,
                                              std::uint64_t seed) {
  std::vector<std::uint32_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::size_t j = draw64(seed, i) % i;
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

// ---- the deck: weighted, stratified draws from the base corpus -------------

// Base-corpus classes, in the order corpus::FileKind declares them.
enum class FileClass : std::uint8_t {
  kBaseline = 0,
  kProgressive,
  kUnsupported,
  kNotAnImage,
  kCmyk,
  kZeroWipedTail,
  kTruncated,
  kTrailingGarbage,
  kConcatenated,
  kCount
};

// Cards per epoch for each class. Every baseline file gets
// kBaselineCards; the anomaly cards split the ~6% remainder in the corpus
// module's §6.2 proportions (progressive 3 : unsupported 1.5 : non-image 1
// : CMYK 0.5, plus the §A.3 corruptions), rounded to whole cards. With the
// 32 baseline files the benchmark builds that is 192 of 204 cards, i.e.
// 94.1% baseline JPEG.
inline constexpr int kBaselineCards = 6;
inline constexpr int kAnomalyCards[] = {
    0,  // baseline (per file, above)
    3,  // progressive
    1,  // unsupported
    1,  // not an image
    1,  // CMYK
    2,  // zero-wiped tail
    1,  // truncated
    2,  // trailing garbage
    1,  // concatenated
};

// Weighted draws from the base corpus, stratified so that a short run sees
// the same file mix whatever its seed. An epoch is kBaselineCards rounds;
// each round holds every baseline file once plus its share of the epoch's
// anomaly cards, in a seeded order. So any run of a round's length holds
// nearly every baseline file once, while the order — and so the load
// pattern, the keys and the tags — changes with the seed. Every draw is
// still marginally a draw from the §6.2-weighted deck.
class Deck {
 public:
  // `classes[i]` is base file i's class. Anomaly cards of one class are
  // spread round-robin over that class's files.
  explicit Deck(const std::vector<FileClass>& classes) {
    std::vector<std::vector<std::uint32_t>> by_class(
        static_cast<std::size_t>(FileClass::kCount));
    for (std::size_t i = 0; i < classes.size(); ++i) {
      by_class[static_cast<std::size_t>(classes[i])].push_back(
          static_cast<std::uint32_t>(i));
    }
    baseline_ = by_class[0];
    for (std::size_t c = 1; c < by_class.size(); ++c) {
      const auto& files = by_class[c];
      if (files.empty()) continue;
      for (int k = 0; k < kAnomalyCards[c]; ++k) {
        anomalies_.push_back(files[static_cast<std::size_t>(k) % files.size()]);
      }
    }
    // Rounds must split the anomaly cards evenly; fold any remainder into
    // fewer, equal rounds.
    rounds_ = kBaselineCards;
    while (rounds_ > 1 && anomalies_.size() % rounds_ != 0) --rounds_;
    round_size_ = baseline_.size() + anomalies_.size() / rounds_;
  }

  std::size_t round_size() const { return round_size_; }
  std::size_t epoch_size() const { return round_size_ * rounds_; }

  // The epoch's multiset of cards.
  std::vector<std::uint32_t> cards() const {
    std::vector<std::uint32_t> all;
    for (std::size_t r = 0; r < rounds_; ++r) {
      all.insert(all.end(), baseline_.begin(), baseline_.end());
    }
    all.insert(all.end(), anomalies_.begin(), anomalies_.end());
    return all;
  }

  // Draw i of stream `seed`.
  std::uint32_t draw(std::uint64_t seed, std::uint64_t i) const {
    if (round_size_ == 0) return 0;
    const std::uint64_t round = i / round_size_;
    const std::uint64_t epoch = round / rounds_;
    const std::size_t per_round = anomalies_.size() / rounds_;
    std::vector<std::uint32_t> cards = baseline_;
    if (per_round > 0) {
      std::vector<std::uint32_t> a =
          permutation(anomalies_.size(), mix64(seed ^ 0xa11) ^ epoch);
      const std::size_t first = (round % rounds_) * per_round;
      for (std::size_t k = 0; k < per_round; ++k) {
        cards.push_back(anomalies_[a[first + k]]);
      }
    }
    std::vector<std::uint32_t> order =
        permutation(round_size_, mix64(seed) ^ round);
    return cards[order[i % round_size_]];
  }

 private:
  std::vector<std::uint32_t> baseline_;
  std::vector<std::uint32_t> anomalies_;
  std::size_t rounds_ = 1;
  std::size_t round_size_ = 0;
};

// ---- Zipf ------------------------------------------------------------------

// P(rank r) ∝ 1 / (r+1)^s over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t size() const { return cdf_.size(); }
  std::size_t rank(double u) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    std::size_t r = static_cast<std::size_t>(it - cdf_.begin());
    return r < cdf_.size() ? r : cdf_.size() - 1;
  }
  double share(std::size_t r) const {
    return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
  }

 private:
  std::vector<double> cdf_;
};

// ---- operations and schedules ----------------------------------------------

enum class OpType : std::uint8_t { kPut, kGet };

struct Op {
  OpType type = OpType::kGet;
  // kPut: base-corpus file index; kGet: population rank (0 = hottest).
  std::uint32_t target = 0;
  // kPut: the COM tag that makes the bytes distinct (also names the key).
  std::uint64_t tag = 0;
  // Open loop: seconds after the start of the measured phase the op is due.
  double due_s = 0;

  bool operator==(const Op&) const = default;
};

// Stream separators, so one run seed gives independent streams.
inline constexpr std::uint64_t kPutStream = 0x70757473ull;   // "puts"
inline constexpr std::uint64_t kGetStream = 0x67657473ull;   // "gets"
inline constexpr std::uint64_t kTimeStream = 0x74696d65ull;  // "time"
inline constexpr std::uint64_t kMixStream = 0x6d697865ull;   // "mixe"

inline std::uint64_t put_tag(std::uint64_t seed, std::uint64_t i) {
  return draw64(seed ^ kPutStream, i) | 1;  // never 0
}

// Closed loop, puts of fresh keys: op i of a `backfill` run.
inline Op put_op(const Deck& deck, std::uint64_t seed, std::uint64_t i) {
  Op op;
  op.type = OpType::kPut;
  op.target = deck.draw(seed ^ kPutStream, i);
  op.tag = put_tag(seed, i);
  return op;
}

// Zipf gets are stratified like the deck: each block of kZipfStrata draws
// takes one uniform from each 1/kZipfStrata slice of [0, 1), in a seeded
// order, so a run's hit/miss and size mix follows the distribution closely
// while each draw is still marginally Zipf.
inline constexpr std::uint64_t kZipfStrata = 16;

inline double stratified_unit(std::uint64_t seed, std::uint64_t i) {
  const std::vector<std::uint32_t> slice =
      permutation(kZipfStrata, mix64(seed) ^ (i / kZipfStrata));
  return (slice[i % kZipfStrata] + draw_unit(seed, i)) /
         static_cast<double>(kZipfStrata);
}

// Closed loop, Zipf gets: op i of a `hot_reads` run.
inline Op get_op(const Zipf& zipf, std::uint64_t seed, std::uint64_t i) {
  Op op;
  op.type = OpType::kGet;
  op.target =
      static_cast<std::uint32_t>(zipf.rank(stratified_unit(seed ^ kGetStream, i)));
  return op;
}

// Open loop: a Poisson process of `rate` ops/s over [0, seconds),
// conditioned on its count — round(rate * seconds) arrivals at sorted
// uniform times — so every seed offers the same load. Exactly
// round(count * put_share) of them are puts (fresh keys, deck draws), at
// seeded positions. The gets' Zipf ranks are the count-point quantiles of
// the distribution (rank of (k + 0.5) / gets), sent in a seeded order:
// a run this short would otherwise differ from seed to seed mostly in
// which tail objects it happened to read.
inline std::vector<Op> open_loop_schedule(const Deck& deck, const Zipf& zipf,
                                          std::uint64_t seed, double rate,
                                          double seconds, double put_share) {
  const std::size_t n =
      static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<double> due(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = draw_unit(seed ^ kTimeStream, i) * seconds;
  }
  std::sort(due.begin(), due.end());
  const std::size_t puts =
      static_cast<std::size_t>(std::llround(static_cast<double>(n) * put_share));
  const std::size_t gets = n - puts;
  const std::vector<std::uint32_t> order = permutation(n, seed ^ kMixStream);
  const std::vector<std::uint32_t> quantile =
      permutation(gets, seed ^ kGetStream);
  std::vector<Op> ops(n);
  std::uint64_t put_i = 0, get_i = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (order[i] < puts) {
      ops[i] = put_op(deck, seed, put_i++);
    } else {
      const double u = (quantile[get_i++] + 0.5) / static_cast<double>(gets);
      ops[i].type = OpType::kGet;
      ops[i].target = static_cast<std::uint32_t>(zipf.rank(u));
    }
    ops[i].due_s = due[i];
  }
  return ops;
}

// ---- the COM tag -----------------------------------------------------------

// A COM segment (FF FE, big-endian length, payload) inserted right after
// SOI. Fixed length, so one tagged instance per base file proves the
// class of every tagged instance (the parser skips COM payloads).
inline constexpr std::size_t kTagPayload = 32;
inline constexpr std::size_t kTagBytes = 4 + kTagPayload;

inline void write_tag(std::uint64_t tag, std::uint8_t* out) {
  out[0] = 0xFF;
  out[1] = 0xFE;
  out[2] = 0;
  out[3] = static_cast<std::uint8_t>(kTagPayload + 2);
  char text[kTagPayload + 1];
  std::snprintf(text, sizeof text, "perfbench tag %016llx  ",
                static_cast<unsigned long long>(tag));
  std::memcpy(out + 4, text, kTagPayload);
}

// base[0..2) (SOI), tag, base[2..).
inline void tagged_into(std::span<const std::uint8_t> base, std::uint64_t tag,
                        std::vector<std::uint8_t>* out) {
  const std::size_t head = std::min<std::size_t>(2, base.size());
  out->resize(base.size() + kTagBytes);
  std::memcpy(out->data(), base.data(), head);
  write_tag(tag, out->data() + head);
  std::memcpy(out->data() + head + kTagBytes, base.data() + head,
              base.size() - head);
}

// True iff `got` is exactly tagged(base, tag), without building it.
inline bool equals_tagged(std::span<const std::uint8_t> got,
                          std::span<const std::uint8_t> base,
                          std::uint64_t tag) {
  const std::size_t head = std::min<std::size_t>(2, base.size());
  if (got.size() != base.size() + kTagBytes) return false;
  std::uint8_t t[kTagBytes];
  write_tag(tag, t);
  return std::memcmp(got.data(), base.data(), head) == 0 &&
         std::memcmp(got.data() + head, t, kTagBytes) == 0 &&
         std::memcmp(got.data() + head + kTagBytes, base.data() + head,
                     base.size() - head) == 0;
}

// ---- percentiles -----------------------------------------------------------

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto at = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(n, std::max<std::size_t>(at, 1));
}

inline constexpr double kPercentileLadder[] = {50, 75, 90, 95, 99, 99.5, 99.9};
inline constexpr std::size_t kMinBeyond = 10;

struct PercentilePick {
  double p = 50;            // the percentile reported
  std::size_t n = 0;        // samples
  std::size_t beyond = 0;   // samples beyond it
  bool supported = false;   // beyond >= kMinBeyond
};

// The highest ladder percentile <= `want` with at least kMinBeyond
// samples beyond it; falls back to the median (flagged unsupported) when
// even that lacks them.
inline PercentilePick pick_percentile(std::size_t n, double want) {
  PercentilePick pick;
  pick.n = n;
  pick.p = kPercentileLadder[0];
  pick.beyond = samples_beyond(n, pick.p);
  pick.supported = pick.beyond >= kMinBeyond;
  for (double p : kPercentileLadder) {
    if (p > want) break;
    if (samples_beyond(n, p) < kMinBeyond) break;
    pick.p = p;
    pick.beyond = samples_beyond(n, p);
    pick.supported = true;
  }
  return pick;
}

// Nearest-rank percentile of sorted samples (0 when empty).
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  auto at = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-9));
  at = std::clamp<std::size_t>(at, 1, sorted.size());
  return sorted[at - 1];
}

inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---- spans -----------------------------------------------------------------

struct Span {
  std::uint16_t name = 0;       // index into the run's span-name table
  std::int32_t parent = -1;     // index of the causing span in its request
  std::uint64_t request = 0;    // spans of one request share this id
  std::int64_t start_ns = 0;    // steady_clock, relative to the phase start
  std::int64_t end_ns = 0;
  std::uint8_t flag = 0;        // e.g. cache hit, first-attempt timeout

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

// Self time: the span's duration minus the part of its interval that the
// union of its children covers (children may overlap each other or run
// past the parent; only the covered part of the parent counts).
inline std::int64_t self_time_ns(const Span& parent,
                                 std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) {
              return a.start_ns < b.start_ns;
            });
  std::int64_t covered = 0;
  std::int64_t cur_lo = 0, cur_hi = std::numeric_limits<std::int64_t>::min();
  auto flush = [&] {
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  };
  for (const Span& c : children) {
    const std::int64_t lo = std::max(c.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi <= lo) continue;
    if (lo > cur_hi) {
      flush();
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  flush();
  return parent.duration_ns() - covered;
}

}  // namespace perfbench
