// strr_perfbench: the repository benchmark.
//
//   strr_perfbench prepare --data DIR
//       Generates the full-scale bench dataset into DIR once (untimed).
//   strr_perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                      --data DIR --work DIR [--spans FILE]
//       Sets the engine up, warms it, drives the workload's closed-loop
//       clients through the ReachabilityEngine facade for S seconds,
//       checks the answers against a cache-less executor and prints every
//       metric by name and unit. --trace 1 adds a traced pass that runs
//       each layer's public entry point from outside the library and
//       prints the per-layer metrics instead. The last stdout line is the
//       JSON result object.
//
// See README.md in this directory for the workloads and metric table.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/persist.h"
#include "core/reachability_engine.h"
#include "core/result_cache.h"
#include "query/bounding_region.h"
#include "query/probability.h"
#include "query/trace_back.h"
#include "stats.h"
#include "storage/io_context.h"
#include "traj/fleet_simulator.h"
#include "workload.h"

namespace perfbench {
namespace {

using strr::ReachabilityEngine;
using strr::RegionResult;
using strr::SegmentId;
using strr::StatusOr;

/// LoadDataset + Build repetitions; setup_s is their median.
constexpr int kSetups = 2;
/// Closed-loop warm-up after the Con-Index and cache fills.
constexpr double kWarmupSeconds = 1.0;
/// Feed priming: 1 s epochs of query load beside the feed.
constexpr int kPrimeEpochs = 3;
/// Unique requests per client whose work counts form the exact ledger.
constexpr size_t kLedgerPerClient = 24;
/// Pairs the storage read-scaling probe reads.
constexpr size_t kReadPairs = 16384;

// --- Arguments ---------------------------------------------------------------

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data;
  std::string work;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--data") {
      args->data = value;
    } else if (key == "--work") {
      args->work = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return !args->data.empty();
}

// --- Small helpers -----------------------------------------------------------

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// CPU time of the whole process, in nanoseconds.
int64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Resident set size now, in MiB (0 when /proc is unavailable).
double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Bit-for-bit region identity: same segments and same length bits.
bool SameRegion(const std::vector<SegmentId>& a_segments, double a_length,
                const std::vector<SegmentId>& b_segments, double b_length) {
  return a_segments == b_segments &&
         std::memcmp(&a_length, &b_length, sizeof(double)) == 0;
}

/// Starts `n` threads running fn(i) and joins them all.
template <typename Fn>
void RunThreads(int n, Fn&& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) threads.emplace_back([&fn, i] { fn(i); });
  for (std::thread& t : threads) t.join();
}

/// Peak resident memory, sampled every 20 ms while running.
class RssMonitor {
 public:
  RssMonitor() : thread_([this] { Loop(); }) {}
  ~RssMonitor() { Stop(); }
  RssMonitor(const RssMonitor&) = delete;
  RssMonitor& operator=(const RssMonitor&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  double peak_mb() const { return peak_mb_.load(); }

 private:
  void Loop() {
    while (!stop_.load()) {
      double mb = ResidentMb();
      if (mb > peak_mb_.load()) peak_mb_.store(mb);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_{0.0};
  std::thread thread_;
};

// --- Engine stack ------------------------------------------------------------

/// The loaded dataset and the engine over it. Heap-allocated and never
/// moved: the engine holds pointers into the dataset.
struct Stack {
  strr::Dataset dataset;
  std::unique_ptr<ReachabilityEngine> engine;
};

/// Only what a deployment of the workload needs; every opt-in knob stays at
/// its default.
strr::EngineOptions MakeEngineOptions(const WorkloadSpec& spec,
                                      const std::string& work_dir) {
  strr::EngineOptions opt;
  opt.work_dir = work_dir;
  opt.result_cache_entries = 8192;
  opt.max_inflight_queries = static_cast<size_t>(spec.clients);
  if (spec.feed_rate > 0.0) {
    opt.live_ingestion = true;
    opt.live_durability = true;
  }
  return opt;
}

/// LoadDataset + Build, kSetups times from a clean work directory; keeps the
/// last stack and reports every timing.
StatusOr<std::unique_ptr<Stack>> SetUp(const Args& args,
                                       const WorkloadSpec& spec,
                                       std::vector<double>* timings) {
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    std::error_code ec;
    std::filesystem::remove_all(args.work, ec);
    int64_t t0 = NowNs();
    int64_t c0 = CpuNs();
    auto next = std::make_unique<Stack>();
    STRR_ASSIGN_OR_RETURN(next->dataset, strr::LoadDataset(args.data));
    int64_t t1 = NowNs();
    int64_t c1 = CpuNs();
    STRR_ASSIGN_OR_RETURN(
        next->engine,
        ReachabilityEngine::Build(next->dataset.network,
                                  *next->dataset.store,
                                  MakeEngineOptions(spec, args.work)));
    timings->push_back(Seconds(NowNs() - t0));
    std::printf("setup %d: LoadDataset %.3f s (cpu %.3f s), Build %.3f s "
                "(cpu %.3f s)\n",
                i + 1, Seconds(t1 - t0), Seconds(c1 - c0),
                Seconds(NowNs() - t1), Seconds(CpuNs() - c1));
    stack = std::move(next);
  }
  return stack;
}

/// One site per street (a two-way street's twins share one): non-highway
/// segments whose midpoint locates back to them, with per-slot traffic,
/// each slot's sites ordered by distance from the city centre.
SiteCatalog BuildCatalog(const ReachabilityEngine& engine,
                         const strr::XyPoint& center) {
  const strr::StIndex& index = engine.st_index();
  const strr::RoadNetwork& net = engine.network();
  SiteCatalog catalog;
  catalog.slot_seconds = index.slot_seconds();
  catalog.active.resize(static_cast<size_t>(index.slots_per_day()));
  for (SegmentId s = 0; s < net.NumSegments(); ++s) {
    const strr::RoadSegment& seg = net.segment(s);
    if (seg.level == strr::RoadLevel::kHighway) continue;
    SegmentId twin = seg.reverse_id;
    if (twin != strr::kInvalidSegment && twin < s) continue;
    strr::XyPoint mid = seg.shape.Interpolate(seg.length / 2);
    auto located = index.LocateSegment(mid);
    if (!located.ok() || (*located != s && *located != twin)) continue;
    uint32_t id = static_cast<uint32_t>(catalog.sites.size());
    catalog.sites.push_back({mid.x, mid.y, s, twin});
    for (strr::SlotId slot = 0; slot < index.slots_per_day(); ++slot) {
      bool traffic = index.HasTraffic(s, slot) ||
                     (twin != strr::kInvalidSegment &&
                      index.HasTraffic(twin, slot));
      if (traffic) catalog.active[slot].push_back(id);
    }
  }
  auto distance = [&](uint32_t site) {
    return std::hypot(catalog.sites[site].x - center.x,
                      catalog.sites[site].y - center.y);
  };
  for (std::vector<uint32_t>& sites : catalog.active) {
    std::stable_sort(sites.begin(), sites.end(), [&](uint32_t a, uint32_t b) {
      return distance(a) < distance(b);
    });
  }
  return catalog;
}

strr::XyPoint SitePoint(const SiteCatalog& catalog, uint32_t site) {
  return {catalog.sites[site].x, catalog.sites[site].y};
}

strr::SQuery ToSQuery(const SiteCatalog& catalog, const QuerySpec& q) {
  return {SitePoint(catalog, q.sites[0]), q.start_tod, q.duration, q.prob};
}

strr::MQuery ToMQuery(const SiteCatalog& catalog, const QuerySpec& q) {
  strr::MQuery mq;
  for (uint32_t s : q.sites) mq.locations.push_back(SitePoint(catalog, s));
  mq.start_tod = q.start_tod;
  mq.duration = q.duration;
  mq.prob = q.prob;
  return mq;
}

/// The request through the public facade.
StatusOr<RegionResult> AskFacade(ReachabilityEngine& engine,
                             const SiteCatalog& catalog, const QuerySpec& q) {
  return q.sites.size() == 1 ? engine.SQueryIndexed(ToSQuery(catalog, q))
                             : engine.MQueryIndexed(ToMQuery(catalog, q));
}

/// The request as a plan (what the facade plans internally).
StatusOr<strr::QueryPlan> Plan(const ReachabilityEngine& engine,
                               const SiteCatalog& catalog,
                               const QuerySpec& q) {
  return q.sites.size() == 1
             ? engine.planner().PlanSQuery(ToSQuery(catalog, q))
             : engine.planner().PlanMQuery(ToMQuery(catalog, q));
}

// --- Live feed ---------------------------------------------------------------

/// Open-loop feeder: offers one observation every 1/rate seconds on a
/// covered cell at a time of day inside the query band, and a watcher that
/// times each accepted observation until the ingestor's published count
/// covers it. The engine's only producer, so accepted counts line up with
/// the ingestor's.
class Feeder {
 public:
  Feeder(ReachabilityEngine& engine, const SiteCatalog& catalog,
         const WorkloadSpec& spec, uint64_t seed)
      : engine_(&engine),
        catalog_(&catalog),
        spec_(&spec),
        rng_(seed),
        source_(engine.network(), SourceOptions(seed)) {
    base_accepted_ = engine.ingestor()->stats().accepted;
    offer_ns_.reserve(1 << 16);
    late_ns_.reserve(1 << 16);
    offered_at_.reserve(1 << 16);
    feeder_ = std::thread([this] { FeedLoop(); });
    watcher_ = std::thread([this] { WatchLoop(); });
  }
  ~Feeder() { Stop(); }
  Feeder(const Feeder&) = delete;
  Feeder& operator=(const Feeder&) = delete;

  /// Stops offering, then waits (up to 5 s) until every accepted
  /// observation is visible.
  void Stop() {
    if (!feeder_.joinable()) return;
    stop_feed_.store(true);
    feeder_.join();
    int64_t give_up = NowNs() + 5'000'000'000LL;
    while (visible_.load() < accepted_.load() && NowNs() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop_watch_.store(true);
    watcher_.join();
  }

  uint64_t offered() const { return offered_; }
  uint64_t dropped() const { return offered_ - accepted_.load(); }
  std::vector<int64_t>& offer_ns() { return offer_ns_; }
  std::vector<int64_t>& late_ns() { return late_ns_; }
  std::vector<int64_t>& visible_ns() { return visible_ns_; }

 private:
  /// The historical fleet's speed model, so live probes look like the
  /// traffic the profile was built from.
  static strr::LiveObservationOptions SourceOptions(uint64_t seed) {
    strr::FleetOptions fleet = strr::BenchDatasetOptions().fleet;
    strr::LiveObservationOptions opt;
    opt.seed = seed;
    opt.speed_noise_std = fleet.speed_noise_std;
    opt.slow_traversal_prob = fleet.slow_traversal_prob;
    opt.slow_traversal_factor_lo = fleet.slow_traversal_factor_lo;
    opt.slow_traversal_factor_hi = fleet.slow_traversal_factor_hi;
    opt.congestion = fleet.congestion;
    return opt;
  }

  void FeedLoop() {
    const int64_t period = static_cast<int64_t>(1e9 / spec_->feed_rate);
    const int64_t start = NowNs();
    for (uint64_t i = 0; !stop_feed_.load(); ++i) {
      int64_t due = start + static_cast<int64_t>(i) * period;
      int64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      // A covered cell inside the band: a site with traffic in the slot,
      // either direction of its street.
      const std::vector<uint32_t>* active = nullptr;
      int64_t tod = 0;
      while (active == nullptr || active->empty()) {
        tod = rng_.Int(spec_->band_begin, spec_->band_end - 1);
        active = &catalog_->active[tod / catalog_->slot_seconds];
      }
      const SiteCatalog::Site& site =
          catalog_->sites[(*active)[rng_.Next() % active->size()]];
      SegmentId seg = site.segment;
      if (site.twin != strr::kInvalidSegment && (rng_.Next() & 1)) {
        seg = site.twin;
      }
      strr::SpeedObservation obs = source_.NextAt(seg, tod);
      int64_t t0 = NowNs();
      bool ok = engine_->OfferObservation(obs);
      int64_t t1 = NowNs();
      ++offered_;
      offer_ns_.push_back(t1 - t0);
      late_ns_.push_back(std::max<int64_t>(0, t0 - due));
      if (ok) {
        std::lock_guard<std::mutex> lock(mu_);
        offered_at_.push_back(t0);
        accepted_.store(offered_at_.size());
      }
    }
  }

  void WatchLoop() {
    strr::ObservationIngestor* ingestor = engine_->ingestor();
    while (!stop_watch_.load()) {
      uint64_t published = ingestor->stats().published;
      int64_t now = NowNs();
      uint64_t covered =
          published > base_accepted_ ? published - base_accepted_ : 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        covered = std::min<uint64_t>(covered, offered_at_.size());
        for (uint64_t k = visible_.load(); k < covered; ++k) {
          visible_ns_.push_back(now - offered_at_[k]);
        }
      }
      if (covered > visible_.load()) visible_.store(covered);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  ReachabilityEngine* engine_;
  const SiteCatalog* catalog_;
  const WorkloadSpec* spec_;
  Stream rng_;
  strr::LiveObservationSource source_;
  uint64_t base_accepted_ = 0;

  uint64_t offered_ = 0;               // feeder thread only
  std::vector<int64_t> offer_ns_;      // feeder thread only
  std::vector<int64_t> late_ns_;       // feeder thread only
  std::mutex mu_;
  std::vector<int64_t> offered_at_;    // guarded by mu_
  std::vector<int64_t> visible_ns_;    // guarded by mu_ (watcher writes)
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> visible_{0};
  std::atomic<bool> stop_feed_{false};
  std::atomic<bool> stop_watch_{false};
  std::thread feeder_;
  std::thread watcher_;
};

// --- Live-tier counters ------------------------------------------------------

struct LiveCounters {
  uint64_t published = 0;
  uint64_t quiet = 0;
  uint64_t slots_invalidated = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_observations = 0;
};

LiveCounters ReadLive(ReachabilityEngine& engine) {
  LiveCounters c;
  if (engine.live_manager() == nullptr) return c;
  strr::LiveProfileManager::Stats m = engine.live_manager()->stats();
  c.published = m.published;
  c.quiet = m.publishes_quiet;
  c.slots_invalidated = m.slots_invalidated + m.slots_partially_invalidated;
  if (engine.journal() != nullptr) {
    strr::ObservationJournal::Stats j = engine.journal()->stats();
    c.wal_syncs = j.wal_syncs;
    c.wal_bytes = j.wal_bytes;
    c.wal_observations = j.observations_appended;
  }
  return c;
}

LiveCounters Delta(const LiveCounters& a, const LiveCounters& b) {
  return {b.published - a.published, b.quiet - a.quiet,
          b.slots_invalidated - a.slots_invalidated,
          b.wal_syncs - a.wal_syncs, b.wal_bytes - a.wal_bytes,
          b.wal_observations - a.wal_observations};
}

// --- Closed-loop clients -----------------------------------------------------

/// One window request kept for the answer check.
struct Sampled {
  QuerySpec query;
  bool ok = false;
  std::vector<SegmentId> segments;
  double length = 0.0;
};

struct ClientLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;  ///< finished inside the window
  int64_t busy_ns = 0;     ///< window start to the last completion in it,
                           ///< less the time spent in window checks
  uint64_t window_checked = 0;     ///< live: answers checked in the window
  uint64_t window_mismatches = 0;
  int64_t check_ns = 0;            ///< client time spent in those checks
  std::vector<int64_t> latency_ns;
  std::vector<int64_t> mquery_ns;
  std::vector<Sampled> sampled;
};

/// Context shared by every phase of one run.
struct Bench {
  Args args;
  WorkloadSpec spec;
  Stack* stack = nullptr;
  ReachabilityEngine* engine = nullptr;
  SiteCatalog catalog;
  HotSet hot;
  /// Live only: the cache-less executor that checks sampled window answers
  /// in the window, and the manager's version minus the ingestor's batch
  /// count when no publish is in flight.
  strr::QueryExecutor* verifier = nullptr;
  uint64_t publish_offset = 0;
};

/// Live window check of one answer, made right after it returns: when the
/// snapshot current now is still `version`, the version current when the
/// request started with its publish's cache evictions done, no publish
/// overlapped the request and the answer, cache hit or not, must equal the
/// cache-less executor's on that snapshot. nullopt when a publish
/// intervened (the retired snapshot has no reference).
std::optional<bool> CheckAtCurrent(Bench& b, const QuerySpec& q,
                                   const RegionResult& got,
                                   uint64_t version) {
  strr::SnapshotRef snap = b.engine->live_manager()->Acquire();
  if (snap.version() != version) return std::nullopt;
  StatusOr<strr::QueryPlan> plan = Plan(*b.engine, b.catalog, q);
  if (!plan.ok()) return false;
  StatusOr<RegionResult> want = b.verifier->ExecuteAgainst(
      *plan, &snap.con_index(), &snap.profile(), snap.version());
  return want.ok() && SameRegion(got.segments, got.total_length_m,
                                 want->segments, want->total_length_m);
}

/// Drives spec.clients closed-loop clients through the facade for
/// `seconds`, each drawing from its own stream of `phase`. With
/// `sample_phase` set, each request is kept for the answer check with
/// probability spec.reference_share, decided by that phase's streams; with
/// b.verifier set too, a kept answer is also checked in the window when no
/// publish overlapped its request, and the check's time is left out of the
/// client's busy time.
std::vector<ClientLog> RunClosedLoop(Bench& b, Phase phase, double seconds,
                                     std::optional<Phase> sample_phase) {
  std::vector<ClientLog> logs(b.spec.clients);
  std::atomic<int> ready{0};
  std::atomic<int64_t> deadline{0};
  RunThreads(b.spec.clients, [&](int c) {
    ClientLog& log = logs[c];
    RequestStream stream(b.spec, b.catalog, b.hot, b.args.seed, phase, c);
    Stream sampler(sample_phase ? StreamSeed(b.args.seed, *sample_phase, c)
                                : 0);
    log.latency_ns.reserve(1 << 15);
    // Start together: the last client to arrive sets the deadline.
    if (ready.fetch_add(1) + 1 == b.spec.clients) {
      deadline.store(NowNs() + static_cast<int64_t>(seconds * 1e9));
    }
    while (deadline.load() == 0) std::this_thread::yield();
    const int64_t end = deadline.load();
    const int64_t start = end - static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < end) {
      Request r = stream.Next();
      const bool sample =
          sample_phase && sampler.Uniform() < b.spec.reference_share;
      // Publishes completed (evictions included), then the version: equal
      // means the current snapshot's publish has finished.
      bool settled = false;
      uint64_t version = 0;
      if (sample && b.verifier != nullptr) {
        const uint64_t done =
            b.engine->ingestor()->stats().batches + b.publish_offset;
        version = b.engine->live_manager()->version();
        settled = done == version;
      }
      int64_t t0 = NowNs();
      StatusOr<RegionResult> result =
          AskFacade(*b.engine, b.catalog, r.query);
      int64_t t1 = NowNs();
      ++log.attempted;
      if (!result.ok()) ++log.failed;
      log.latency_ns.push_back(t1 - t0);
      if (r.multi()) log.mquery_ns.push_back(t1 - t0);
      if (t1 <= end) {
        ++log.completed;
        log.busy_ns = t1 - start - log.check_ns;
      }
      if (sample) {
        if (settled && result.ok()) {
          const int64_t c0 = NowNs();
          if (std::optional<bool> same =
                  CheckAtCurrent(b, r.query, *result, version)) {
            ++log.window_checked;
            if (!*same) ++log.window_mismatches;
          }
          log.check_ns += NowNs() - c0;
        }
        Sampled s;
        s.query = r.query;
        s.ok = result.ok();
        if (result.ok()) {
          s.segments = std::move(result->segments);
          s.length = result->total_length_m;
        }
        log.sampled.push_back(std::move(s));
      }
    }
  });
  return logs;
}

/// Executes every hot plan once through the facade, spread over the
/// clients, so the result cache holds the hot set.
void FillHotSet(Bench& b) {
  std::vector<const QuerySpec*> all;
  for (const QuerySpec& q : b.hot.squeries) all.push_back(&q);
  for (const QuerySpec& q : b.hot.mqueries) all.push_back(&q);
  std::atomic<size_t> next{0};
  RunThreads(b.spec.clients, [&](int) {
    for (size_t i = next++; i < all.size(); i = next++) {
      (void)AskFacade(*b.engine, b.catalog, *all[i]);
    }
  });
}

// --- Traced pass -------------------------------------------------------------

enum SpanKind : uint8_t {
  kSpanRequest,
  kSpanPlan,
  kSpanLookup,
  kSpanPin,
  kSpanCone,
  kSpanOracle,
  kSpanTbs,
  kSpanKinds
};
const char* const kSpanNames[kSpanKinds] = {
    "request", "query.plan", "core.cache_lookup", "live.pin",
    "query.cone", "query.oracle", "query.tbs"};

struct Span {
  uint64_t request = 0;  ///< (client << 32) | sequence
  SpanKind kind = kSpanRequest;
  int64_t start = 0;
  int64_t end = 0;
};

/// Counts recorded at the same boundaries as the spans.
struct TraceCounts {
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t hits = 0;
  uint64_t executed = 0;
  uint64_t mismatches = 0;
  uint64_t verified = 0;
  uint64_t verified_at_pin = 0;  ///< checked at the pinned version instead
  uint64_t tables_built = 0;
  uint64_t page_hits = 0;
  uint64_t page_misses = 0;
  uint64_t disk_reads = 0;
  int64_t busy_ns = 0;  ///< time inside the traced request path
  int64_t stage_ns[kSpanKinds] = {};
  /// The exact ledger: the first kLedgerPerClient unique requests.
  uint64_t ledger_queries = 0;
  uint64_t ledger_time_lists = 0;
  uint64_t ledger_verified = 0;
  uint64_t ledger_expanded = 0;
  uint64_t ledger_heap_pops = 0;
  uint64_t ledger_page_requests = 0;

  void Add(const TraceCounts& o) {
    requests += o.requests;
    failed += o.failed;
    hits += o.hits;
    executed += o.executed;
    mismatches += o.mismatches;
    verified += o.verified;
    verified_at_pin += o.verified_at_pin;
    tables_built += o.tables_built;
    page_hits += o.page_hits;
    page_misses += o.page_misses;
    disk_reads += o.disk_reads;
    busy_ns += o.busy_ns;
    for (int k = 0; k < kSpanKinds; ++k) stage_ns[k] += o.stage_ns[k];
    ledger_queries += o.ledger_queries;
    ledger_time_lists += o.ledger_time_lists;
    ledger_verified += o.ledger_verified;
    ledger_expanded += o.ledger_expanded;
    ledger_heap_pops += o.ledger_heap_pops;
    ledger_page_requests += o.ledger_page_requests;
  }
};

struct TraceLog {
  TraceCounts counts;
  std::vector<Span> spans;
  std::vector<int64_t> stage_samples[kSpanKinds];
  std::vector<int64_t> hit_ns;  ///< lookup time of cache hits
  /// (segment, slot) pairs the storage probe may read, from executions.
  std::vector<std::pair<SegmentId, strr::SlotId>> pairs;
};

/// Runs one request stage by stage in the executor's order, timing each
/// layer's public entry point, then checks the region against the facade.
void TraceOne(Bench& b, const Request& r, uint64_t request_id, Stream& pairs,
              strr::QueryExecutor& reference, size_t* ledger_left,
              TraceLog& log) {
  ReachabilityEngine& engine = *b.engine;
  const strr::RoadNetwork& net = engine.network();
  TraceCounts& n = log.counts;
  auto span = [&](SpanKind kind, int64_t start, int64_t end) {
    log.spans.push_back({request_id, kind, start, end});
    log.stage_samples[kind].push_back(end - start);
    n.stage_ns[kind] += end - start;
  };
  ++n.requests;
  const int64_t req_start = NowNs();

  int64_t t0 = NowNs();
  StatusOr<strr::QueryPlan> plan = Plan(engine, b.catalog, r.query);
  int64_t t1 = NowNs();
  span(kSpanPlan, t0, t1);
  if (!plan.ok()) {
    ++n.failed;
    return;
  }

  t0 = NowNs();
  strr::PlanKey key = strr::MakePlanKey(*plan);
  std::optional<RegionResult> hit =
      engine.executor().result_cache()->Lookup(key);
  t1 = NowNs();
  span(kSpanLookup, t0, t1);

  std::vector<SegmentId> segments;
  double length = 0.0;
  uint64_t version = 0;
  strr::SnapshotRef snap;
  const strr::ConIndex* con = &engine.con_index();
  const strr::SpeedProfile* profile = &engine.speed_profile();
  if (hit) {
    ++n.hits;
    log.hit_ns.push_back(t1 - t0);
    segments = std::move(hit->segments);
    length = hit->total_length_m;
    version = hit->stats.snapshot_version;
  } else {
    ++n.executed;
    if (engine.live_manager() != nullptr) {
      t0 = NowNs();
      snap = engine.live_manager()->Acquire();
      t1 = NowNs();
      span(kSpanPin, t0, t1);
      con = &snap.con_index();
      profile = &snap.profile();
      version = snap.version();
    }
    const size_t tables_before = con->MaterializedTables();
    strr::SearchMetrics metrics;
    strr::BoundingSearchOptions search;
    search.metrics = &metrics;
    t0 = NowNs();
    StatusOr<strr::BoundingRegions> regions =
        plan->IsMultiLocation()
            ? strr::MqmbSearch(net, *con, *profile, plan->AllStartSegments(),
                               plan->start_tod, plan->duration, search)
            : strr::SqmbSearchSet(net, *con, plan->location_starts[0],
                                  plan->start_tod, plan->duration, search);
    t1 = NowNs();
    span(kSpanCone, t0, t1);
    const size_t tables_after = con->MaterializedTables();
    n.tables_built += tables_after > tables_before
                          ? tables_after - tables_before
                          : 0;
    if (!regions.ok()) {
      ++n.failed;
      return;
    }

    strr::ScopedIoCounters io;
    t0 = NowNs();
    StatusOr<strr::ReachabilityProbability> oracle =
        strr::ReachabilityProbability::Create(
            engine.st_index(), regions->start_segments, plan->start_tod,
            engine.delta_t_seconds(), plan->duration);
    t1 = NowNs();
    span(kSpanOracle, t0, t1);
    if (!oracle.ok()) {
      ++n.failed;
      return;
    }
    t0 = NowNs();
    if (!oracle->StartHasNoTraffic()) {
      StatusOr<strr::TbsOutcome> tbs = strr::TraceBackSearch(
          net, *regions, plan->prob, *oracle);
      if (!tbs.ok()) {
        ++n.failed;
        return;
      }
      segments = std::move(tbs->region);
    }
    t1 = NowNs();
    span(kSpanTbs, t0, t1);
    length = net.LengthOfSegments(segments);

    const strr::StorageStats& s = io.stats();
    n.page_hits += s.cache_hits;
    n.page_misses += s.cache_misses;
    n.disk_reads += s.disk_page_reads;
    if (r.hot_index < 0 && *ledger_left > 0) {
      --*ledger_left;
      ++n.ledger_queries;
      n.ledger_time_lists += oracle->time_lists_read();
      n.ledger_verified += oracle->verifications();
      n.ledger_expanded += metrics.segments_expanded;
      n.ledger_heap_pops += metrics.heap_pops;
      n.ledger_page_requests += s.TotalRequests();
    }
    // The storage probe's mix: pairs this query's oracle may read.
    if (!regions->max_region.empty() && log.pairs.size() < kReadPairs) {
      std::vector<strr::SlotId> slots = engine.st_index().SlotsCovering(
          plan->start_tod, plan->start_tod + plan->duration);
      for (int k = 0; k < 16 && !slots.empty(); ++k) {
        log.pairs.emplace_back(
            regions->max_region[pairs.Next() % regions->max_region.size()],
            slots[pairs.Next() % slots.size()]);
      }
    }
  }
  const int64_t req_end = NowNs();
  log.spans.push_back({request_id, kSpanRequest, req_start, req_end});
  n.busy_ns += req_end - req_start;

  // Faithfulness, outside the timed path: the facade must return the same
  // region. A live publish between the two calls moves the facade to a
  // newer snapshot; the check then runs the executor against the pinned one.
  StatusOr<RegionResult> facade = AskFacade(engine, b.catalog, r.query);
  if (!facade.ok()) {
    ++n.mismatches;
    return;
  }
  if (facade->stats.snapshot_version == version) {
    ++n.verified;
    if (!SameRegion(segments, length, facade->segments,
                    facade->total_length_m)) {
      ++n.mismatches;
    }
    return;
  }
  if (!snap.valid()) return;  // a hit computed at a retired version
  StatusOr<RegionResult> pinned = reference.ExecuteAgainst(
      *plan, &snap.con_index(), &snap.profile(), snap.version());
  ++n.verified_at_pin;
  if (!pinned.ok() || !SameRegion(segments, length, pinned->segments,
                                  pinned->total_length_m)) {
    ++n.mismatches;
  }
}

std::vector<TraceLog> RunTraced(Bench& b, double seconds,
                                strr::QueryExecutor& reference) {
  std::vector<TraceLog> logs(b.spec.clients);
  std::atomic<int> ready{0};
  std::atomic<int64_t> deadline{0};
  RunThreads(b.spec.clients, [&](int c) {
    TraceLog& log = logs[c];
    RequestStream stream(b.spec, b.catalog, b.hot, b.args.seed,
                         Phase::kTraced, c);
    Stream pairs(StreamSeed(b.args.seed, Phase::kReads, c));
    log.spans.reserve(1 << 16);
    size_t ledger_left = kLedgerPerClient;
    if (ready.fetch_add(1) + 1 == b.spec.clients) {
      deadline.store(NowNs() + static_cast<int64_t>(seconds * 1e9));
    }
    while (deadline.load() == 0) std::this_thread::yield();
    const int64_t end = deadline.load();
    for (uint64_t seq = 0; NowNs() < end; ++seq) {
      Request r = stream.Next();
      TraceOne(b, r, (static_cast<uint64_t>(c) << 32) | seq, pairs,
               reference, &ledger_left, log);
    }
  });
  return logs;
}

/// Writes the spans as Chrome trace-event JSON (one process, one track per
/// client; stage spans are children of their request span).
void WriteSpans(const std::string& path, const std::vector<TraceLog>& logs,
                int64_t origin) {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const TraceLog& log : logs) {
    for (const Span& s : log.spans) {
      uint32_t client = static_cast<uint32_t>(s.request >> 32);
      std::fprintf(
          f,
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%" PRIu64
          ",\"parent\":\"%s\"}}",
          first ? "" : ",\n", kSpanNames[s.kind], client,
          static_cast<double>(s.start - origin) * 1e-3,
          static_cast<double>(s.end - s.start) * 1e-3, s.request,
          s.kind == kSpanRequest ? "" : kSpanNames[kSpanRequest]);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// --- Storage read scaling ----------------------------------------------------

struct ReadProbe {
  double us_p50_1t = 0.0;
  double us_p50_nt = 0.0;
  double scaling = 0.0;
  int threads = 0;
  size_t reads = 0;
};

/// Times StIndex::ReadTimeList over the workload's own (segment, slot) mix
/// at one thread and at nproc threads (each thread walks the whole mix from
/// its own offset). Read failures are counted in `failures`.
ReadProbe ProbeReads(ReachabilityEngine& engine,
                     const std::vector<std::pair<SegmentId, strr::SlotId>>& mix,
                     uint64_t* failures) {
  ReadProbe p;
  if (mix.empty()) return p;
  p.threads = static_cast<int>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  p.reads = mix.size();
  const strr::StIndex& index = engine.st_index();
  std::atomic<uint64_t> failed{0};
  auto pass = [&](int threads, std::vector<int64_t>* samples) {
    std::vector<std::vector<int64_t>> per(threads);
    int64_t t0 = NowNs();
    RunThreads(threads, [&](int t) {
      per[t].reserve(mix.size());
      size_t offset = mix.size() * t / threads;
      for (size_t i = 0; i < mix.size(); ++i) {
        const auto& [seg, slot] = mix[(offset + i) % mix.size()];
        int64_t a = NowNs();
        if (!index.ReadTimeList(seg, slot).ok()) failed.fetch_add(1);
        per[t].push_back(NowNs() - a);
      }
    });
    int64_t wall = NowNs() - t0;
    for (auto& v : per) samples->insert(samples->end(), v.begin(), v.end());
    return static_cast<double>(mix.size()) * threads / Seconds(wall);
  };
  // An untimed pass first, so both timed passes start from the pool and
  // page-cache state the mix itself leaves behind.
  std::vector<int64_t> one, many;
  pass(1, &one);
  one.clear();
  double rate_1t = pass(1, &one);
  double rate_nt = pass(p.threads, &many);
  p.us_p50_1t = Percentile(one, 0.5) * 1e-3;
  p.us_p50_nt = Percentile(many, 0.5) * 1e-3;
  p.scaling = rate_1t > 0.0 ? rate_nt / rate_1t : 0.0;
  *failures += failed.load();
  return p;
}

// --- Answer check ------------------------------------------------------------

/// Re-runs the sampled window requests through a cache-less executor and
/// compares regions bit for bit, computing each distinct query once. For a
/// live workload (`refresh_facade`) the feed has stopped: the facade is
/// asked again at the final snapshot, so any cache entry that survived
/// invalidation is checked against a fresh computation (the window's own
/// answers were checked in the window, see CheckAtCurrent).
struct CheckResult {
  uint64_t compared = 0;
  uint64_t hot_compared = 0;
  uint64_t mismatches = 0;
};

CheckResult CheckAnswers(Bench& b, const std::vector<ClientLog>& logs,
                         strr::QueryExecutor& reference,
                         bool refresh_facade) {
  CheckResult out;
  std::vector<const Sampled*> samples;
  for (const ClientLog& log : logs) {
    for (const Sampled& s : log.sampled) samples.push_back(&s);
  }
  // Distinct queries, in first-seen order.
  std::vector<const QuerySpec*> distinct;
  std::vector<size_t> which(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    size_t j = 0;
    while (j < distinct.size() && !(*distinct[j] == samples[i]->query)) ++j;
    if (j == distinct.size()) distinct.push_back(&samples[i]->query);
    which[i] = j;
  }
  std::vector<strr::QueryPlan> plans;
  std::vector<bool> planned(distinct.size(), false);
  std::vector<size_t> plan_of(distinct.size(), 0);
  for (size_t j = 0; j < distinct.size(); ++j) {
    StatusOr<strr::QueryPlan> plan = Plan(*b.engine, b.catalog, *distinct[j]);
    if (!plan.ok()) continue;
    planned[j] = true;
    plan_of[j] = plans.size();
    plans.push_back(*std::move(plan));
  }
  std::vector<StatusOr<RegionResult>> ref = reference.ExecuteBatch(plans);
  std::vector<std::optional<RegionResult>> fresh(distinct.size());
  if (refresh_facade) {
    for (size_t j = 0; j < distinct.size(); ++j) {
      StatusOr<RegionResult> r = AskFacade(*b.engine, b.catalog, *distinct[j]);
      if (r.ok()) fresh[j] = *std::move(r);
    }
  }
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sampled& s = *samples[i];
    size_t j = which[i];
    ++out.compared;
    bool hot = false;
    for (const QuerySpec& q : b.hot.squeries) hot = hot || q == s.query;
    for (const QuerySpec& q : b.hot.mqueries) hot = hot || q == s.query;
    if (hot) ++out.hot_compared;
    if (!planned[j] || !ref[plan_of[j]].ok()) {
      ++out.mismatches;
      continue;
    }
    const RegionResult& want = *ref[plan_of[j]];
    if (refresh_facade) {
      if (!fresh[j] || !SameRegion(fresh[j]->segments,
                                   fresh[j]->total_length_m, want.segments,
                                   want.total_length_m)) {
        ++out.mismatches;
      }
    } else if (!s.ok || !SameRegion(s.segments, s.length, want.segments,
                                    want.total_length_m)) {
      ++out.mismatches;
    }
  }
  return out;
}

// --- Output ------------------------------------------------------------------

struct JsonMetric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<JsonMetric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const JsonMetric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Commands ----------------------------------------------------------------

int Prepare(const Args& args) {
  if (strr::DatasetExists(args.data)) return 0;
  int64_t t0 = NowNs();
  std::fprintf(stderr, "# generating the full-scale dataset into %s\n",
               args.data.c_str());
  StatusOr<strr::Dataset> dataset =
      strr::BuildDataset(strr::BenchDatasetOptions());
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  strr::Status saved = strr::SaveDataset(*dataset, args.data);
  if (!saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "# dataset ready in %.1f s\n", Seconds(NowNs() - t0));
  return 0;
}

int Run(const Args& args) {
  Bench b;
  b.args = args;
  if (!LookupWorkload(args.workload, &b.spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!strr::DatasetExists(args.data)) {
    std::fprintf(stderr, "no dataset at %s (run prepare first)\n",
                 args.data.c_str());
    return 2;
  }
  const WorkloadSpec& spec = b.spec;
  const bool live = spec.feed_rate > 0.0;
  std::printf("workload %s  seed %" PRIu64 "  window %.1f s  clients %d%s\n",
              spec.name.c_str(), args.seed, args.seconds, spec.clients,
              live ? "  + 1 feeder" : "");

  // Setup: LoadDataset + Build, repeated; median is setup_s.
  std::vector<double> setups;
  StatusOr<std::unique_ptr<Stack>> stack = SetUp(args, spec, &setups);
  if (!stack.ok()) {
    std::fprintf(stderr, "setup: %s\n", stack.status().ToString().c_str());
    return 1;
  }
  b.stack = stack->get();
  b.engine = b.stack->engine.get();
  ReachabilityEngine& engine = *b.engine;
  for (size_t i = 0; i < setups.size(); ++i) {
    std::printf("setup %zu: %.3f s\n", i + 1, setups[i]);
  }

  RssMonitor rss;
  int64_t t0 = NowNs();
  b.catalog = BuildCatalog(engine, b.stack->dataset.center);
  b.hot = MakeHotSet(spec, b.catalog, args.seed);
  std::printf("inputs: %zu sites, %zu hot plans (%.3f s)\n",
              b.catalog.sites.size(),
              b.hot.squeries.size() + b.hot.mqueries.size(),
              Seconds(NowNs() - t0));

  // Warm-up to steady state.
  t0 = NowNs();
  if (strr::Status built = engine.con_index().BuildAll(); !built.ok()) {
    std::fprintf(stderr, "BuildAll: %s\n", built.ToString().c_str());
    return 1;
  }
  const double buildall_s = Seconds(NowNs() - t0);
  FillHotSet(b);
  std::unique_ptr<Feeder> feeder;
  std::string primed;
  if (live) {
    // Prime the feed under query load; the quiet-publish share of each
    // epoch is printed to show it has levelled off.
    feeder = std::make_unique<Feeder>(
        engine, b.catalog, spec, StreamSeed(args.seed, Phase::kFeed, 0));
    primed = ", feed primed, quiet share per epoch";
    for (int epoch = 0; epoch < kPrimeEpochs; ++epoch) {
      LiveCounters before = ReadLive(engine);
      RunClosedLoop(b, Phase::kWarmup, 1.0, std::nullopt);
      LiveCounters d = Delta(before, ReadLive(engine));
      primed += " " + std::to_string(Ratio(d.quiet, d.published));
    }
    feeder->Stop();
  } else {
    RunClosedLoop(b, Phase::kWarmup, kWarmupSeconds, std::nullopt);
  }
  const double warmup_s = Seconds(NowNs() - t0);
  std::printf("warmup: %.3f s (BuildAll %.3f s%s)\n", warmup_s, buildall_s,
              primed.c_str());

  // The cache-less reference executor of every answer check.
  std::unique_ptr<strr::QueryExecutor> reference = [&] {
    strr::QueryExecutorOptions ref;
    ref.result_cache_entries = 0;
    return engine.MakeExecutor(ref);
  }();
  if (live) {
    // The feed has stopped: flush, so no publish is in flight.
    engine.ingestor()->Flush();
    b.verifier = reference.get();
    b.publish_offset =
        engine.live_manager()->version() - engine.ingestor()->stats().batches;
  }

  // Measured window, tracing off.
  strr::QueryExecutor::FrontDoorStats door0 =
      engine.executor().front_door_stats();
  strr::StorageStats io0 = engine.st_index().storage_stats();
  LiveCounters live0 = ReadLive(engine);
  if (live) {
    feeder = std::make_unique<Feeder>(
        engine, b.catalog, spec, StreamSeed(args.seed, Phase::kFeed, 1));
  }
  const int64_t window_start = NowNs();
  std::vector<ClientLog> window =
      RunClosedLoop(b, Phase::kWindow, args.seconds, Phase::kReference);
  const double window_s = Seconds(NowNs() - window_start);
  LiveCounters live_window = Delta(live0, ReadLive(engine));
  if (feeder) feeder->Stop();
  strr::QueryExecutor::FrontDoorStats door1 =
      engine.executor().front_door_stats();
  strr::StorageStats io1 = engine.st_index().storage_stats();

  // Each client's rate runs to its last completion inside the window, so
  // the in-flight request at the deadline neither counts nor dilutes.
  uint64_t attempted = 0, failed = 0, completed = 0;
  double qps = 0.0;
  std::vector<int64_t> lat, mlat;
  uint64_t window_checked = 0, window_mismatches = 0;
  int64_t window_check_ns = 0;
  for (ClientLog& log : window) {
    window_checked += log.window_checked;
    window_mismatches += log.window_mismatches;
    window_check_ns += log.check_ns;
    attempted += log.attempted;
    failed += log.failed;
    completed += log.completed;
    qps += Ratio(static_cast<double>(log.completed), Seconds(log.busy_ns));
    lat.insert(lat.end(), log.latency_ns.begin(), log.latency_ns.end());
    mlat.insert(mlat.end(), log.mquery_ns.begin(), log.mquery_ns.end());
  }
  const double ok_frac =
      Ratio(static_cast<double>(attempted - failed), attempted);

  std::printf("\n# end to end (tracing off, %.3f s window)\n", window_s);
  PrintMetric("qps", qps, "1/s",
              "(" + std::to_string(completed) + " completed)");
  double p50 = PrintPercentile("query_p50_ms", lat, 0.50, "ms");
  double p95 = PrintPercentile("query_p95_ms", lat, 0.95, "ms");
  PrintPercentile("query_p99_ms", lat, 0.99, "ms");
  PrintPercentile("mquery_p50_ms", mlat, 0.50, "ms");
  PrintMetric("query_fail_frac", 1.0 - ok_frac, "frac",
              "(" + std::to_string(failed) + " of " +
                  std::to_string(attempted) + ")");
  double peak_rss = rss.peak_mb();
  PrintMetric("peak_rss_mb", peak_rss, "MiB", "(serving phase)");
  double setup_s = Median(setups);
  PrintMetric("setup_s", setup_s, "s",
              "(median of " + std::to_string(setups.size()) + ")");
  PrintMetric("warmup_s", warmup_s, "s");
  PrintMetric("window.cache_hit_rate",
              Ratio(door1.cache_hits - door0.cache_hits,
                    (door1.cache_hits - door0.cache_hits) +
                        (door1.cache_misses - door0.cache_misses)),
              "frac");
  PrintMetric("window.storage_hit_rate",
              Ratio(io1.cache_hits - io0.cache_hits,
                    io1.TotalRequests() - io0.TotalRequests()),
              "frac");
  double vis_p50 = 0, vis_p99 = 0, drop_frac = 0;
  if (live) {
    vis_p50 = PrintPercentile("obs_visible_p50_ms", feeder->visible_ns(), 0.5,
                              "ms");
    vis_p99 = PrintPercentile("obs_visible_p99_ms", feeder->visible_ns(),
                              0.99, "ms");
    drop_frac = Ratio(feeder->dropped(), feeder->offered());
    PrintMetric("obs_drop_frac", drop_frac, "frac",
                "(" + std::to_string(feeder->dropped()) + " of " +
                    std::to_string(feeder->offered()) + ")");
    PrintMetric("window.publishes_per_s", live_window.published / window_s,
                "1/s");
    PrintMetric("window.quiet_frac",
                Ratio(live_window.quiet, live_window.published), "frac");
  }

  // Traced pass of fresh streams, same shape, feed running when live.
  std::vector<JsonMetric> layer;
  TraceCounts tc;
  if (args.trace) {
    strr::QueryExecutor::FrontDoorStats td0 =
        engine.executor().front_door_stats();
    LiveCounters tl0 = ReadLive(engine);
    if (live) {
      feeder = std::make_unique<Feeder>(
          engine, b.catalog, spec, StreamSeed(args.seed, Phase::kFeed, 2));
    }
    const int64_t traced_start = NowNs();
    std::vector<TraceLog> traced = RunTraced(b, args.seconds, *reference);
    const double traced_s = Seconds(NowNs() - traced_start);
    LiveCounters tl = Delta(tl0, ReadLive(engine));
    std::vector<int64_t> offer, late;
    if (feeder) {
      feeder->Stop();
      offer = feeder->offer_ns();
      late = feeder->late_ns();
    }
    strr::QueryExecutor::FrontDoorStats td1 =
        engine.executor().front_door_stats();

    std::vector<int64_t> stage[kSpanKinds], hit_ns;
    std::vector<std::pair<SegmentId, strr::SlotId>> mix;
    for (TraceLog& log : traced) {
      tc.Add(log.counts);
      for (int k = 0; k < kSpanKinds; ++k) {
        stage[k].insert(stage[k].end(), log.stage_samples[k].begin(),
                        log.stage_samples[k].end());
      }
      hit_ns.insert(hit_ns.end(), log.hit_ns.begin(), log.hit_ns.end());
      mix.insert(mix.end(), log.pairs.begin(), log.pairs.end());
    }
    WriteSpans(args.spans, traced, traced_start);
    if (mix.size() > kReadPairs) mix.resize(kReadPairs);
    uint64_t read_failures = 0;
    ReadProbe reads = ProbeReads(engine, mix, &read_failures);
    tc.failed += read_failures;

    // Traced throughput counts only time inside the traced request path;
    // the faithfulness calls after each request are excluded.
    const double traced_qps =
        Ratio(static_cast<double>(tc.requests),
              Seconds(tc.busy_ns) / spec.clients);
    double stage_total = 0.0;
    for (int k = kSpanPlan; k < kSpanKinds; ++k) stage_total += tc.stage_ns[k];
    const double ledger = static_cast<double>(tc.ledger_queries);
    const double executed = static_cast<double>(tc.executed);
    const uint64_t page_requests = tc.page_hits + tc.page_misses;

    std::printf("\n# per layer (traced pass, %.3f s, %" PRIu64
                " requests, spans -> %s)\n",
                traced_s, tc.requests,
                args.spans.empty() ? "(not written)" : args.spans.c_str());
    auto add = [&](const std::string& name, double value,
                   const std::string& unit, const std::string& note = "") {
      PrintMetric(name, value, unit, note);
      layer.push_back({name, value, unit});
    };
    auto add_pct = [&](const std::string& name, std::vector<int64_t>& v,
                       double q, const std::string& unit) {
      layer.push_back({name, PrintPercentile(name, v, q, unit), unit});
    };
    add("core.cache_hit_rate", Ratio(tc.hits, tc.requests - tc.failed),
        "frac");
    add_pct("core.cache_hit_us_p50", hit_ns, 0.5, "us");
    add("core.cache_invalidated",
        static_cast<double>(td1.cache_invalidated - td0.cache_invalidated),
        "count");
    add("core.shed", static_cast<double>(td1.shed), "count",
        "(whole run)");
    add_pct("query.plan_us_p50", stage[kSpanPlan], 0.5, "us");
    add_pct("query.cone_ms_p50", stage[kSpanCone], 0.5, "ms");
    add_pct("query.oracle_ms_p50", stage[kSpanOracle], 0.5, "ms");
    add_pct("query.tbs_ms_p50", stage[kSpanTbs], 0.5, "ms");
    add_pct("query.tbs_ms_p90", stage[kSpanTbs], 0.9, "ms");
    add("query.tbs_share", Ratio(tc.stage_ns[kSpanTbs], stage_total), "frac");
    add("query.cone_share", Ratio(tc.stage_ns[kSpanCone], stage_total),
        "frac");
    add("query.oracle_share", Ratio(tc.stage_ns[kSpanOracle], stage_total),
        "frac");
    add("query.front_door_share",
        Ratio(tc.stage_ns[kSpanPlan] + tc.stage_ns[kSpanLookup], stage_total),
        "frac");
    add("query.time_lists_per_query", Ratio(tc.ledger_time_lists, ledger),
        "count", "(ledger of " + std::to_string(tc.ledger_queries) +
                     " unique queries)");
    add("query.verified_per_query", Ratio(tc.ledger_verified, ledger),
        "count");
    add("search.expanded_per_query", Ratio(tc.ledger_expanded, ledger),
        "count");
    add("search.heap_pops_per_query", Ratio(tc.ledger_heap_pops, ledger),
        "count");
    add("index.con_tables_built", static_cast<double>(tc.tables_built),
        "count");
    add("storage.page_requests_per_query",
        Ratio(tc.ledger_page_requests, ledger), "count");
    add("storage.hit_rate", Ratio(tc.page_hits, page_requests), "frac");
    add("storage.disk_reads_per_query", Ratio(tc.disk_reads, executed),
        "count");
    add("storage.read_us_p50_1t", reads.us_p50_1t, "us",
        "(" + std::to_string(reads.reads) + " reads)");
    add("storage.read_us_p50_nt", reads.us_p50_nt, "us",
        "(" + std::to_string(reads.threads) + " threads)");
    add("storage.read_scaling", reads.scaling, "x");
    add_pct("live.pin_us_p50", stage[kSpanPin], 0.5, "us");
    add("live.publishes_per_s", tl.published / traced_s, "1/s");
    add("live.quiet_frac", Ratio(tl.quiet, tl.published), "frac");
    add("live.slots_invalidated", static_cast<double>(tl.slots_invalidated),
        "count");
    add_pct("live.offer_us_p50", offer, 0.5, "us");
    add_pct("live.feed_late_ms_p99", late, 0.99, "ms");
    add("live.wal_syncs_per_s", tl.wal_syncs / traced_s, "1/s");
    add("live.wal_bytes_per_obs", Ratio(tl.wal_bytes, tl.wal_observations),
        "B");
    add("live.obs_visible_p50_ms", vis_p50, "ms", "(window)");
    add("live.obs_visible_p99_ms", vis_p99, "ms", "(window)");
    add("live.obs_drop_frac", drop_frac, "frac", "(window)");
    add("trace.qps_untraced", qps, "1/s");
    add("trace.qps_traced", traced_qps, "1/s");
    add("trace.overhead_frac", qps > 0.0 ? 1.0 - traced_qps / qps : 0.0,
        "frac");
    PrintMetric("trace.verified_vs_facade", static_cast<double>(tc.verified),
                "count");
    PrintMetric("trace.verified_at_pinned_snapshot",
                static_cast<double>(tc.verified_at_pin), "count");
    PrintMetric("trace.mismatches", static_cast<double>(tc.mismatches),
                "count");
  }

  // Answer check: sampled window requests against a cache-less executor;
  // on the live workload only once every accepted observation is published.
  if (live) engine.ingestor()->Flush();
  CheckResult check =
      CheckAnswers(b, window, *reference, /*refresh_facade=*/live);
  std::printf("\n# answer check: %" PRIu64 " sampled requests (%" PRIu64
              " hot), %" PRIu64 " mismatches\n",
              check.compared, check.hot_compared, check.mismatches);
  if (live) {
    std::printf("# answer check in the window: %" PRIu64
                " sampled answers checked at their snapshot, %" PRIu64
                " mismatches, %.3f s of client time excluded\n",
                window_checked, window_mismatches, Seconds(window_check_ns));
  }
  rss.Stop();

  const bool correct = check.mismatches == 0 && tc.mismatches == 0 &&
                       window_mismatches == 0 && check.compared > 0;
  if (args.trace) {
    PrintJson(correct, attempted + tc.requests,
              failed + tc.failed + check.mismatches + window_mismatches +
                  tc.mismatches,
              layer);
  } else {
    PrintJson(correct, attempted,
              failed + check.mismatches + window_mismatches,
              {{"setup_s", setup_s, "s"},
               {"qps", qps, "1/s"},
               {"query_p50_ms", p50, "ms"},
               {"query_p95_ms", p95, "ms"},
               {"query_ok_frac", ok_frac, "frac"},
               {"peak_rss_mb", peak_rss, "MiB"}});
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: strr_perfbench prepare --data DIR\n"
                 "       strr_perfbench run --workload NAME --seed N "
                 "--seconds S --trace 0|1 --data DIR --work DIR "
                 "[--spans FILE]\n");
    return 2;
  }
  if (args.command == "prepare") return perfbench::Prepare(args);
  if (args.command == "run") return perfbench::Run(args);
  std::fprintf(stderr, "unknown command '%s'\n", args.command.c_str());
  return 2;
}
