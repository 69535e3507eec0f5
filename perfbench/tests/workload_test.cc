// Seed-discipline tests for the benchmark's request streams.
//
// Build and run with the benchmark package, from the repository root:
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target workload_test
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

/// A 40x40 grid of sites 250 m apart; every fifth site is quiet in odd
/// slots, so the generator has to skip sites without traffic.
SiteCatalog GridCatalog() {
  SiteCatalog c;
  c.slot_seconds = 300;
  c.active.resize(288);
  for (uint32_t i = 0; i < 1600; ++i) {
    c.sites.push_back({(i % 40) * 250.0, (i / 40) * 250.0, 2 * i, 2 * i + 1});
    for (size_t slot = 0; slot < c.active.size(); ++slot) {
      if (i % 5 == 0 && slot % 2 == 1) continue;
      c.active[slot].push_back(i);
    }
  }
  return c;
}

/// Identity of a plan: sites, T, L and the bits of Prob.
using Key = std::tuple<std::vector<uint32_t>, int64_t, int64_t, uint64_t>;

Key KeyOf(const QuerySpec& q) {
  uint64_t bits = 0;
  std::memcpy(&bits, &q.prob, sizeof(bits));
  return {q.sites, q.start_tod, q.duration, bits};
}

const Phase kRequestPhases[] = {Phase::kWarmup, Phase::kWindow,
                                Phase::kTraced};
constexpr int kPerStream = 1500;

void TestStreamSeedsAreDistinct() {
  std::set<uint64_t> seeds;
  for (uint32_t p = 1; p <= 7; ++p) {
    for (uint32_t c = 0; c < 8; ++c) {
      seeds.insert(StreamSeed(42, static_cast<Phase>(p), c));
      seeds.insert(StreamSeed(43, static_cast<Phase>(p), c));
    }
  }
  EXPECT(seeds.size() == 7u * 8u * 2u);
}

void TestSameSeedSameRequests() {
  SiteCatalog catalog = GridCatalog();
  WorkloadSpec spec;
  EXPECT(LookupWorkload("rush_hour", &spec));
  HotSet hot = MakeHotSet(spec, catalog, 9);
  HotSet again = MakeHotSet(spec, catalog, 9);
  EXPECT(hot.squeries == again.squeries && hot.mqueries == again.mqueries);
  RequestStream a(spec, catalog, hot, 9, Phase::kWindow, 1);
  RequestStream b(spec, catalog, again, 9, Phase::kWindow, 1);
  for (int i = 0; i < 500; ++i) EXPECT(a.Next().query == b.Next().query);
}

void TestOtherSeedOtherRequests() {
  SiteCatalog catalog = GridCatalog();
  WorkloadSpec spec;
  EXPECT(LookupWorkload("citywide", &spec));
  HotSet hot;
  RequestStream a(spec, catalog, hot, 9, Phase::kWindow, 1);
  RequestStream b(spec, catalog, hot, 10, Phase::kWindow, 1);
  int same_start = 0, same_prob = 0;
  for (int i = 0; i < 500; ++i) {
    QuerySpec x = a.Next().query;
    QuerySpec y = b.Next().query;
    same_start += x.start_tod == y.start_tod;
    same_prob += x.prob == y.prob;
  }
  EXPECT(same_start < 25 && same_prob < 25);
}

void TestRequestShape() {
  SiteCatalog catalog = GridCatalog();
  for (const char* name : {"citywide", "rush_hour", "live_rush"}) {
    WorkloadSpec spec;
    EXPECT(LookupWorkload(name, &spec));
    HotSet hot = MakeHotSet(spec, catalog, 5);
    RequestStream stream(spec, catalog, hot, 5, Phase::kWindow, 0);
    for (int i = 0; i < kPerStream; ++i) {
      Request r = stream.Next();
      const QuerySpec& q = r.query;
      EXPECT(r.multi() == (i % spec.mquery_every == spec.mquery_every - 1));
      EXPECT(q.sites.size() ==
             static_cast<size_t>(r.multi() ? spec.mquery_locations : 1));
      std::set<uint32_t> distinct(q.sites.begin(), q.sites.end());
      EXPECT(distinct.size() == q.sites.size());
      EXPECT(q.start_tod >= spec.band_begin && q.start_tod < spec.band_end);
      EXPECT(q.duration >= 5 * 60 && q.duration <= 30 * 60 &&
             q.duration % 60 == 0);
      EXPECT(q.prob >= 0.1 && q.prob < 0.4);
      const std::vector<uint32_t>& active =
          catalog.active[q.start_tod / catalog.slot_seconds];
      for (uint32_t s : q.sites) {
        bool found = false;
        for (uint32_t a : active) found = found || a == s;
        EXPECT(found);
      }
    }
  }
}

void TestCitywideRepeatsNoPlanAcrossPhases() {
  SiteCatalog catalog = GridCatalog();
  WorkloadSpec spec;
  EXPECT(LookupWorkload("citywide", &spec));
  HotSet hot = MakeHotSet(spec, catalog, 17);
  EXPECT(hot.squeries.empty() && hot.mqueries.empty());
  std::set<Key> seen;
  size_t total = 0;
  for (Phase phase : kRequestPhases) {
    for (int c = 0; c < spec.clients; ++c) {
      RequestStream stream(spec, catalog, hot, 17, phase, c);
      for (int i = 0; i < kPerStream; ++i) {
        Request r = stream.Next();
        EXPECT(r.hot_index < 0);
        seen.insert(KeyOf(r.query));
        ++total;
      }
    }
  }
  EXPECT(seen.size() == total);
}

void TestRushHourRepeatShareMatchesTarget() {
  SiteCatalog catalog = GridCatalog();
  WorkloadSpec spec;
  EXPECT(LookupWorkload("rush_hour", &spec));
  HotSet hot = MakeHotSet(spec, catalog, 23);
  EXPECT(hot.squeries.size() == spec.hot_squeries);
  EXPECT(hot.mqueries.size() == spec.hot_mqueries);
  std::set<Key> hot_keys;
  for (const QuerySpec& q : hot.squeries) hot_keys.insert(KeyOf(q));
  for (const QuerySpec& q : hot.mqueries) hot_keys.insert(KeyOf(q));
  EXPECT(hot_keys.size() == spec.hot_squeries + spec.hot_mqueries);

  std::set<Key> unique;
  size_t unique_total = 0;
  for (Phase phase : kRequestPhases) {
    for (int c = 0; c < spec.clients; ++c) {
      RequestStream stream(spec, catalog, hot, 23, phase, c);
      size_t repeats = 0;
      for (int i = 0; i < kPerStream; ++i) {
        Request r = stream.Next();
        bool is_hot = hot_keys.count(KeyOf(r.query)) > 0;
        EXPECT(is_hot == (r.hot_index >= 0));
        if (is_hot) {
          ++repeats;
        } else {
          unique.insert(KeyOf(r.query));
          ++unique_total;
        }
      }
      // Every stream, not just the union, carries the target share.
      double share = static_cast<double>(repeats) / kPerStream;
      EXPECT(std::fabs(share - spec.hot_share) < 0.01);
    }
  }
  // The miss tail never repeats, within or across phases and clients.
  EXPECT(unique.size() == unique_total);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestStreamSeedsAreDistinct();
  perfbench::TestSameSeedSameRequests();
  perfbench::TestOtherSeedOtherRequests();
  perfbench::TestRequestShape();
  perfbench::TestCitywideRepeatsNoPlanAcrossPhases();
  perfbench::TestRushHourRepeatShareMatchesTarget();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("workload_test: all passed\n");
  return 0;
}
