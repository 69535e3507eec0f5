// Seeded request streams for the repository benchmark.
//
// Everything a workload sends is drawn here, from streams derived from the
// workload seed: one stream per (phase, client), so warm-up, the measured
// window, the traced pass and the answer-check sample never share draws,
// and neither do two clients of one phase. The generator knows nothing of
// the engine: it draws over a catalog of query sites (segment midpoints
// with their per-slot traffic flags) that the benchmark builds once from
// the loaded index.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the one mixing step every stream seed and draw goes through.
uint64_t Mix64(uint64_t x);

/// Small deterministic generator (splitmix64 sequence). Identical on every
/// platform, unlike the standard distributions.
class Stream {
 public:
  explicit Stream(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi] inclusive.
  int64_t Int(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

/// The phases that draw from a workload seed. Each (phase, client) pair
/// owns one stream.
enum class Phase : uint32_t {
  kHotSet = 1,     ///< the rush band's popular plans
  kWarmup = 2,     ///< warm-up requests
  kWindow = 3,     ///< the measured window
  kTraced = 4,     ///< the traced per-layer pass
  kReference = 5,  ///< which window requests the answer check re-runs
  kFeed = 6,       ///< live observations (client = phase being fed)
  kReads = 7,      ///< the storage read-scaling probe's pair mix
};

/// Seed of the stream a phase's client draws from.
uint64_t StreamSeed(uint64_t workload_seed, Phase phase, uint32_t client);

/// Shape of one workload's query stream.
struct WorkloadSpec {
  std::string name;
  int clients = 4;
  int64_t band_begin = 0;  ///< start times T are drawn from [begin, end)
  int64_t band_end = 0;
  /// Share of requests drawn from the hot set (0 = every query unique).
  double hot_share = 0.0;
  size_t hot_squeries = 0;
  size_t hot_mqueries = 0;
  double zipf_exponent = 1.0;
  /// Every Nth request of a client is an m-query.
  int mquery_every = 8;
  int mquery_locations = 3;
  /// Live feed beside the clients (observations per second; 0 = none).
  double feed_rate = 0.0;
  /// Share of window requests the answer check re-runs.
  double reference_share = 0.0;
};

/// The three workloads, by name; false when the name is unknown.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

/// Where queries may start: one site per two-way street (twins share one),
/// each with a flag per index slot telling whether the segment carries
/// traffic then.
struct SiteCatalog {
  struct Site {
    double x = 0.0;
    double y = 0.0;
    uint32_t segment = 0;
    uint32_t twin = 0;  ///< reverse segment, or the network's invalid id
  };
  std::vector<Site> sites;
  int64_t slot_seconds = 300;
  /// active[slot] = ids of the sites carrying traffic in that slot, in
  /// a cost order (the benchmark sorts by distance from the city centre),
  /// so a draw's position in the list stratifies its cost.
  std::vector<std::vector<uint32_t>> active;
};

/// One query as the clients send it: site ids plus T, L and Prob.
struct QuerySpec {
  std::vector<uint32_t> sites;  ///< 1 site = s-query, more = m-query
  int64_t start_tod = 0;
  int64_t duration = 0;
  double prob = 0.0;

  bool operator==(const QuerySpec& o) const {
    return sites == o.sites && start_tod == o.start_tod &&
           duration == o.duration && prob == o.prob;
  }
};

/// One request: the query plus where it came from.
struct Request {
  QuerySpec query;
  int32_t hot_index = -1;  ///< index into the hot set, -1 = unique
  bool multi() const { return query.sites.size() > 1; }
};

/// The hot set: popular plans in the band, s-queries then m-queries.
struct HotSet {
  std::vector<QuerySpec> squeries;
  std::vector<QuerySpec> mqueries;
};

/// Draws the workload's hot set (empty when hot_share is 0).
HotSet MakeHotSet(const WorkloadSpec& spec, const SiteCatalog& catalog,
                  uint64_t workload_seed);

/// One client's request sequence in one phase.
///
/// The hot/unique choice and each unique query's T, L, Prob and first-site
/// position follow a low-discrepancy sequence with offsets rather than
/// independent draws: every stream has the target hot share and the full
/// spread of durations and site costs from its first few dozen requests,
/// so the cost of a window's mix varies little from seed to seed. The
/// offset of L, the dominant cost factor (the cone grows with L squared),
/// depends on the stream's phase and client only, so every seed sees the
/// same sequence of durations; the seed draws everything else.
class RequestStream {
 public:
  /// The stream `client` draws from in `phase` of the workload seeded
  /// `workload_seed`.
  RequestStream(const WorkloadSpec& spec, const SiteCatalog& catalog,
                const HotSet& hot, uint64_t workload_seed, Phase phase,
                uint32_t client);

  Request Next();

 private:
  QuerySpec DrawUnique(bool multi);
  size_t DrawZipf(const std::vector<double>& cdf);
  /// Coordinate d of point k of the seeded low-discrepancy sequence of
  /// one request kind (0 = s-query, 1 = m-query).
  double Spread(int kind, int d, uint64_t k) const;

  const WorkloadSpec* spec_;
  const SiteCatalog* catalog_;
  const HotSet* hot_;
  Stream rng_;
  uint64_t count_ = 0;
  uint64_t unique_count_[2] = {};  ///< per kind: s-queries, m-queries
  double offset_[2][5] = {};
  std::vector<double> s_cdf_;
  std::vector<double> m_cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
