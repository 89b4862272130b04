// Tests of the benchmark's own arithmetic: percentile selection, the
// seeded schedules, the COM tag, and span self time.
//
//   cmake --build .bench_build --target benchlib_test && .bench_build/benchlib_test
//
// (perfbench/run.py --selftest builds and runs it, then the schema check.)
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "benchlib.h"

namespace pb = perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<pb::FileClass> sample_classes() {
  std::vector<pb::FileClass> c(32, pb::FileClass::kBaseline);
  for (int k = 1; k < static_cast<int>(pb::FileClass::kCount); ++k) {
    c.push_back(static_cast<pb::FileClass>(k));
  }
  return c;
}

void test_percentile_selection() {
  // 100 samples: p90 has exactly 10 beyond it, p95 only 5.
  CHECK(pb::samples_beyond(100, 90) == 10);
  CHECK(pb::samples_beyond(100, 95) == 5);
  CHECK(pb::samples_beyond(100, 50) == 50);
  pb::PercentilePick p = pb::pick_percentile(100, 99);
  CHECK(p.p == 90 && p.n == 100 && p.beyond == 10 && p.supported);
  // Never above what was asked for.
  p = pb::pick_percentile(100000, 90);
  CHECK(p.p == 90 && p.supported);
  p = pb::pick_percentile(100000, 99.9);
  CHECK(p.p == 99.9 && p.beyond == 100);
  // 1000 samples: p99 has 10 beyond, p99.5 has 5.
  p = pb::pick_percentile(1000, 99.9);
  CHECK(p.p == 99 && p.beyond == 10);
  // Too few for even the median's tail: flagged, median reported.
  p = pb::pick_percentile(12, 99);
  CHECK(p.p == 50 && !p.supported && p.n == 12);
  p = pb::pick_percentile(0, 50);
  CHECK(!p.supported && p.beyond == 0);
  // Nearest-rank values.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  CHECK(pb::percentile_sorted(v, 50) == 50);
  CHECK(pb::percentile_sorted(v, 90) == 90);
  CHECK(pb::percentile_sorted(v, 100) == 100);
  CHECK(pb::percentile_sorted({}, 50) == 0);
  CHECK(pb::median_of({3, 1, 2}) == 2);
  CHECK(pb::median_of({4, 1, 3, 2}) == 2.5);
}

void test_schedule_determinism() {
  pb::Deck deck(sample_classes());
  pb::Zipf zipf(500, 0.99);
  auto a = pb::open_loop_schedule(deck, zipf, 7, 6.0, 20.0, 0.4);
  auto b = pb::open_loop_schedule(deck, zipf, 7, 6.0, 20.0, 0.4);
  auto c = pb::open_loop_schedule(deck, zipf, 8, 6.0, 20.0, 0.4);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(a.size() == 120);  // round(rate * seconds): same load every seed
  CHECK(c.size() == a.size());
  std::size_t puts = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    puts += a[i].type == pb::OpType::kPut;
    CHECK(a[i].due_s >= 0 && a[i].due_s < 20.0);
    if (i > 0) CHECK(a[i].due_s >= a[i - 1].due_s);
  }
  CHECK(puts == 48);  // exactly 1 put per 1.5 gets
  // The gets are the same Zipf quantiles in another order.
  std::multiset<std::uint32_t> ga, gc;
  for (const pb::Op& op : a) {
    if (op.type == pb::OpType::kGet) ga.insert(op.target);
  }
  for (const pb::Op& op : c) {
    if (op.type == pb::OpType::kGet) gc.insert(op.target);
  }
  CHECK(ga == gc);
  CHECK(ga.count(0) > 5);  // rank 0 holds ~15% of a 500-key Zipf(0.99)

  // Closed-loop ops are pure functions of (seed, index).
  bool differs = false;
  for (std::uint64_t i = 0; i < 300; ++i) {
    CHECK(pb::put_op(deck, 3, i) == pb::put_op(deck, 3, i));
    CHECK(pb::get_op(zipf, 3, i) == pb::get_op(zipf, 3, i));
    differs = differs || !(pb::put_op(deck, 3, i) == pb::put_op(deck, 4, i)) ||
              !(pb::get_op(zipf, 3, i) == pb::get_op(zipf, 4, i));
  }
  CHECK(differs);

  // Every put tag of a run is distinct (distinct bytes and keys).
  std::set<std::uint64_t> tags;
  for (std::uint64_t i = 0; i < 5000; ++i) tags.insert(pb::put_tag(9, i));
  CHECK(tags.size() == 5000);
}

void test_deck_and_zipf() {
  auto classes = sample_classes();
  pb::Deck deck(classes);
  CHECK(deck.epoch_size() == 32 * pb::kBaselineCards + 12);
  CHECK(deck.round_size() == 34);
  // One epoch of draws is exactly one pass over the cards...
  std::vector<int> seen(classes.size(), 0);
  for (std::uint64_t i = 0; i < deck.epoch_size(); ++i) ++seen[deck.draw(5, i)];
  std::vector<int> want(classes.size(), 0);
  for (std::uint32_t card : deck.cards()) ++want[card];
  CHECK(seen == want);
  for (std::size_t f = 0; f < 32; ++f) CHECK(seen[f] == pb::kBaselineCards);
  std::size_t baseline = 0;
  for (std::uint32_t card : deck.cards()) baseline += card < 32;
  CHECK(baseline * 100 / deck.epoch_size() == 94);  // §6.2: ~94% baseline
  // ...and every round holds each baseline file once, whatever the seed.
  for (std::uint64_t seed : {1, 2, 3}) {
    for (std::uint64_t round = 0; round < 8; ++round) {
      std::vector<int> r(classes.size(), 0);
      for (std::uint64_t k = 0; k < deck.round_size(); ++k) {
        ++r[deck.draw(seed, round * deck.round_size() + k)];
      }
      for (std::size_t f = 0; f < 32; ++f) CHECK(r[f] == 1);
    }
  }

  pb::Zipf zipf(100, 0.99);
  CHECK(zipf.rank(0.0) == 0);
  CHECK(zipf.rank(0.999999999) == 99);
  CHECK(zipf.share(0) > zipf.share(1) && zipf.share(1) > zipf.share(50));
  // Each block of kZipfStrata draws takes one uniform from every slice.
  for (std::uint64_t block = 0; block < 8; ++block) {
    std::vector<int> slices(pb::kZipfStrata, 0);
    for (std::uint64_t k = 0; k < pb::kZipfStrata; ++k) {
      const double u = pb::stratified_unit(11, block * pb::kZipfStrata + k);
      CHECK(u >= 0 && u < 1);
      ++slices[static_cast<std::size_t>(u * pb::kZipfStrata)];
    }
    for (int s : slices) CHECK(s == 1);
  }
  // Empirical head share matches the distribution.
  std::size_t head = 0;
  const std::size_t n = 200000;
  for (std::uint64_t i = 0; i < n; ++i) {
    head += pb::get_op(zipf, 11, i).target == 0;
  }
  const double got = static_cast<double>(head) / n;
  CHECK(got > zipf.share(0) * 0.97 && got < zipf.share(0) * 1.03);
}

void test_tag() {
  std::vector<std::uint8_t> base = {0xFF, 0xD8, 0xFF, 0xE0, 1, 2, 3};
  std::vector<std::uint8_t> t;
  pb::tagged_into(base, 42, &t);
  CHECK(t.size() == base.size() + pb::kTagBytes);
  CHECK(t[0] == 0xFF && t[1] == 0xD8 && t[2] == 0xFF && t[3] == 0xFE);
  CHECK(t[5] == pb::kTagPayload + 2);  // COM length counts its own 2 bytes
  CHECK(t[2 + pb::kTagBytes] == 0xFF && t[3 + pb::kTagBytes] == 0xE0);
  CHECK(pb::equals_tagged(t, base, 42));
  CHECK(!pb::equals_tagged(t, base, 43));
  t.back() ^= 1;
  CHECK(!pb::equals_tagged(t, base, 42));
  t.pop_back();
  CHECK(!pb::equals_tagged(t, base, 42));
}

pb::Span span(std::int64_t a, std::int64_t b) {
  pb::Span s;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

void test_self_time() {
  const pb::Span parent = span(0, 100);
  CHECK(pb::self_time_ns(parent, {}) == 100);
  // Disjoint children.
  CHECK(pb::self_time_ns(parent, {span(10, 20), span(50, 80)}) == 60);
  // Overlapping children count once; order does not matter.
  CHECK(pb::self_time_ns(parent, {span(40, 70), span(10, 50)}) == 40);
  // Nested child inside another.
  CHECK(pb::self_time_ns(parent, {span(10, 90), span(20, 30)}) == 20);
  // Children reaching outside the parent are clipped to it.
  CHECK(pb::self_time_ns(parent, {span(-50, 10), span(95, 400)}) == 85);
  CHECK(pb::self_time_ns(parent, {span(200, 300)}) == 100);
  // Touching intervals.
  CHECK(pb::self_time_ns(parent, {span(0, 50), span(50, 100)}) == 0);
}

}  // namespace

int main() {
  test_percentile_selection();
  test_schedule_determinism();
  test_deck_and_zipf();
  test_tag();
  test_self_time();
  if (g_failures == 0) std::printf("benchlib_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
