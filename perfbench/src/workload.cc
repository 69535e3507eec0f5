#include "workload.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

constexpr int64_t kHour = 3600;

/// m-query locations beyond the first are drawn within this radius of it,
/// so the cones overlap the way depots serving one district do. An assumed
/// value, not taken from any query record (see README.md, "Assumptions").
constexpr double kMQueryRadiusM = 3000.0;

/// Low-discrepancy coordinates: 0 hot/unique, 1 T, 2 L, 3 Prob, 4 site.
constexpr int kDurationCoordinate = 2;

std::vector<double> ZipfCdf(size_t n, double exponent) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf[i] = acc;
  }
  for (double& c : cdf) c /= acc;
  return cdf;
}

}  // namespace

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

int64_t Stream::Int(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

uint64_t StreamSeed(uint64_t workload_seed, Phase phase, uint32_t client) {
  uint64_t s = Mix64(workload_seed + 0x243f6a8885a308d3ULL);
  s = Mix64(s ^ (static_cast<uint64_t>(phase) << 32));
  return Mix64(s ^ client);
}

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec w;
  w.name = name;
  if (name == "citywide") {
    w.clients = 4;
    w.band_begin = 7 * kHour;
    w.band_end = 19 * kHour;
    w.reference_share = 1.0 / 8;
  } else if (name == "rush_hour" || name == "live_rush") {
    w.clients = name == "rush_hour" ? 4 : 3;
    w.band_begin = 8 * kHour;
    w.band_end = 9 * kHour;
    // The popularity model is assumed, not measured: no query log of this
    // service exists to fit a hot share, hot-set size or Zipf exponent to
    // (see README.md, "Assumptions").
    w.hot_share = 0.9;
    w.hot_squeries = 224;
    w.hot_mqueries = 32;
    w.zipf_exponent = 0.8;
    w.reference_share = 1.0 / 64;
    if (name == "live_rush") {
      // Invalidation keeps most of this stream executing, so fewer
      // requests complete; sample more of them.
      w.feed_rate = 500.0;
      w.reference_share = 1.0 / 16;
    }
  } else {
    return false;
  }
  *spec = w;
  return true;
}

HotSet MakeHotSet(const WorkloadSpec& spec, const SiteCatalog& catalog,
                  uint64_t workload_seed) {
  HotSet hot;
  if (spec.hot_share <= 0.0) return hot;
  // Popular queries are a property of the city, not of the run: hot plan i
  // starts at the i-th site from the centre among those with traffic at T
  // (an m-plan adds the next sites from the centre within the m-query
  // radius), so the Zipf-top plans cost the same for every seed. T, L and
  // Prob come from the hot-set stream like a unique query's.
  HotSet empty;
  RequestStream draw(spec, catalog, empty, workload_seed, Phase::kHotSet, 0);
  auto fill = [&](std::vector<QuerySpec>& out, size_t n, bool multi) {
    while (out.size() < n) {
      Request r = draw.Next();
      if (r.multi() != multi) continue;
      QuerySpec q = std::move(r.query);
      const std::vector<uint32_t>& active =
          catalog.active[q.start_tod / catalog.slot_seconds];
      const uint32_t first = active[out.size() % active.size()];
      const SiteCatalog::Site& a = catalog.sites[first];
      q.sites = {first};
      for (uint32_t s : active) {
        if (static_cast<int>(q.sites.size()) >=
            (multi ? spec.mquery_locations : 1)) {
          break;
        }
        const SiteCatalog::Site& b = catalog.sites[s];
        if (s != first && std::hypot(a.x - b.x, a.y - b.y) <= kMQueryRadiusM) {
          q.sites.push_back(s);
        }
      }
      if (static_cast<int>(q.sites.size()) !=
          (multi ? spec.mquery_locations : 1)) {
        continue;
      }
      if (std::find(out.begin(), out.end(), q) != out.end()) continue;
      out.push_back(std::move(q));
    }
  };
  fill(hot.squeries, spec.hot_squeries, false);
  fill(hot.mqueries, spec.hot_mqueries, true);
  return hot;
}

RequestStream::RequestStream(const WorkloadSpec& spec,
                             const SiteCatalog& catalog, const HotSet& hot,
                             uint64_t workload_seed, Phase phase,
                             uint32_t client)
    : spec_(&spec),
      catalog_(&catalog),
      hot_(&hot),
      rng_(StreamSeed(workload_seed, phase, client)) {
  Stream pattern(StreamSeed(0, phase, client));
  for (auto& kind : offset_) {
    for (double& o : kind) o = rng_.Uniform();
    kind[kDurationCoordinate] = pattern.Uniform();
  }
  if (!hot.squeries.empty()) {
    s_cdf_ = ZipfCdf(hot.squeries.size(), spec.zipf_exponent);
  }
  if (!hot.mqueries.empty()) {
    m_cdf_ = ZipfCdf(hot.mqueries.size(), spec.zipf_exponent);
  }
}

double RequestStream::Spread(int kind, int d, uint64_t k) const {
  // Roberts' R_5 sequence: x_k = frac(o + k / g^(d+1)), g the positive
  // root of g^6 = g + 1.
  constexpr double g = 1.1347241384015194;
  static const double kAlpha[5] = {1 / g, 1 / (g * g), 1 / (g * g * g),
                                   1 / (g * g * g * g),
                                   1 / (g * g * g * g * g)};
  double x = offset_[kind][d] + static_cast<double>(k) * kAlpha[d];
  return x - std::floor(x);
}

size_t RequestStream::DrawZipf(const std::vector<double>& cdf) {
  double u = rng_.Uniform();
  size_t i = std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
  return std::min(i, cdf.size() - 1);
}

QuerySpec RequestStream::DrawUnique(bool multi) {
  QuerySpec q;
  // T first, then a site that carries traffic in T's slot: a query at a
  // dead segment answers "empty" without touching the TBS path.
  const int kind = multi ? 1 : 0;
  const std::vector<uint32_t>* active = nullptr;
  const int64_t band = spec_->band_end - spec_->band_begin;
  uint64_t k = 0;
  while (active == nullptr || active->empty()) {
    k = unique_count_[kind]++;
    q.start_tod = spec_->band_begin +
                  std::min<int64_t>(band - 1, static_cast<int64_t>(
                                                  Spread(kind, 1, k) * band));
    size_t slot = static_cast<size_t>(q.start_tod / catalog_->slot_seconds);
    active = &catalog_->active[slot];
  }
  const double l = Spread(kind, kDurationCoordinate, k);
  q.duration = (5 + std::min<int64_t>(25, static_cast<int64_t>(l * 26))) * 60;
  q.prob = 0.1 + 0.3 * Spread(kind, 3, k);
  size_t pick = static_cast<size_t>(Spread(kind, 4, k) *
                                    static_cast<double>(active->size()));
  uint32_t first = (*active)[std::min(pick, active->size() - 1)];
  q.sites.push_back(first);
  if (!multi) return q;
  const SiteCatalog::Site& a = catalog_->sites[first];
  int tries = 0;
  while (static_cast<int>(q.sites.size()) < spec_->mquery_locations) {
    uint32_t cand = (*active)[rng_.Next() % active->size()];
    if (std::find(q.sites.begin(), q.sites.end(), cand) != q.sites.end()) {
      continue;
    }
    const SiteCatalog::Site& b = catalog_->sites[cand];
    // Prefer a nearby depot; after many misses (a sparse slot) take any.
    if (std::hypot(a.x - b.x, a.y - b.y) > kMQueryRadiusM && ++tries < 256) {
      continue;
    }
    q.sites.push_back(cand);
  }
  return q;
}

Request RequestStream::Next() {
  bool multi = spec_->mquery_every > 0 &&
               count_ % spec_->mquery_every ==
                   static_cast<uint64_t>(spec_->mquery_every - 1);
  ++count_;
  Request r;
  // The hot/unique choice is made for every request position, hot set or
  // not, so the share holds per stream prefix.
  bool hot = Spread(multi ? 1 : 0, 0, count_) < spec_->hot_share;
  const std::vector<QuerySpec>& pool = multi ? hot_->mqueries : hot_->squeries;
  if (hot && !pool.empty()) {
    size_t i = DrawZipf(multi ? m_cdf_ : s_cdf_);
    r.query = pool[i];
    r.hot_index = static_cast<int32_t>(multi ? hot_->squeries.size() + i : i);
  } else {
    r.query = DrawUnique(multi);
  }
  return r;
}

}  // namespace perfbench
