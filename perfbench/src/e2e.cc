// End-to-end benchmark: RUBiS and the wiki driven through the real application stacks
// (TxCacheClient -> CacheCluster -> CacheServer, InvalidationBus, Database, Pincushion), with
// a per-layer breakdown from a separate traced run.
//
//   perfbench_e2e --workload rubis_loopback|rubis_socket|wiki_evict
//                 --phase txcache|nocache|traced --seed N --seconds S
//                 [--trace-out FILE] [--stale-transport]
//
// One process runs one phase on a freshly built stack: set-up (load, cluster start, warm-up),
// a measured closed loop, then the output check. run.py runs the phases and combines them.
// Every phase runs a fixed number of operations (a fixed rate per --seconds), never a fixed
// duration: per-message invalidation cost grows with the messages seen, so a timed window
// would charge a faster build more per message. perfbench/NOTES.md explains the workloads
// and which layer metric should move which end-to-end metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/bus/bus.h"
#include "src/cache/cache_cluster.h"
#include "src/cache/cache_server.h"
#include "src/core/cacheable_function.h"
#include "src/core/txcache_client.h"
#include "src/db/database.h"
#include "src/net/transport.h"
#include "src/pincushion/pincushion.h"
#include "src/rubis/app.h"
#include "src/rubis/data.h"
#include "src/rubis/session.h"
#include "src/sim/cost_model.h"
#include "src/util/clock.h"
#include "src/util/rng.h"
#include "src/util/serde.h"
#include "src/wiki/wiki.h"

namespace perfbench {
namespace {

using namespace txcache;

constexpr size_t kCacheNodes = 2;
constexpr uint64_t kMaintenanceEveryOps = 2000;  // Pincushion::Sweep + Database::Vacuum
constexpr int kMaxConflictRetries = 50;

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + a * 0xbf58476d1ce4e5b9ull + b + 1;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 29);
}

// --- workload definitions ---------------------------------------------------------------

enum class Kind { kRubis, kWiki };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  bool socket;
  size_t threads;
  uint64_t ops_per_second;  // measured operations per --seconds (the fixed op count)
  uint64_t warmup_ops;      // total, split over the threads
  size_t cache_bytes_per_node;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"rubis_loopback", Kind::kRubis, false, 4, 4000, 24000, 64u << 20},
    {"rubis_socket", Kind::kRubis, true, 4, 4000, 24000, 64u << 20},
    {"wiki_evict", Kind::kWiki, false, 1, 6000, 20000, 4u << 20},
};

constexpr double kRubisScale = 0.1;
constexpr int64_t kWikiArticles = 4000;
constexpr size_t kWikiBodyBytes = 4096;
constexpr int64_t kWikiUsers = 64;
constexpr const char* kWikiPrefixes[] = {"ui.nav", "ui.edit", "ui.search", "ui.footer"};

// --- the stack ----------------------------------------------------------------------------

struct StackOptions {
  ClientMode mode = ClientMode::kConsistent;
  bool socket = false;
  bool traced = false;
  bool stale = false;
  size_t cache_bytes_per_node = 64u << 20;
};

// Database, bus, cache fleet and pincushion. Declaration order is teardown order reversed:
// the cluster (and with it every socket transport's NetServer) goes before the nodes.
class Stack {
 public:
  explicit Stack(const StackOptions& o) : db(&clock) {
    if (o.mode == ClientMode::kNoCache) {
      return;  // the paper's baseline: no cache fleet, no invalidation consumers
    }
    CacheServer::Options cache_options;
    cache_options.capacity_bytes = o.cache_bytes_per_node;
    for (size_t i = 0; i < kCacheNodes; ++i) {
      nodes.push_back(
          std::make_unique<CacheServer>("cache-" + std::to_string(i), &clock, cache_options));
      bus.Subscribe(nodes.back().get());
      std::shared_ptr<CacheTransport> transport =
          o.socket ? MakeSelfHostedSocketTransport(nodes.back().get())
                   : MakeLoopbackTransport(nodes.back().get());
      if (transport == nullptr) {
        std::fprintf(stderr, "could not start a socket transport\n");
        std::exit(2);
      }
      if (o.stale) {
        transport = std::make_shared<StaleTransport>(std::move(transport));
      }
      if (o.traced) {
        transport = std::make_shared<TimedTransport>(std::move(transport));
      }
      transports.push_back(transport);
      cluster.AddNode(transport);
    }
    if (o.traced) {
      bus.SetDeliveryHook([](InvalidationSubscriber* sub, const InvalidationMessage& msg) {
        const int64_t t0 = NowNs();
        sub->Deliver(msg);
        Tracer::Get().Record(SpanKind::kDeliver, t0, NowNs());
      });
    }
  }

  // Starts the invalidation stream once the bulk load is done (as sim::ClusterSim does).
  void ConnectBus() {
    if (!nodes.empty()) {
      db.set_invalidation_bus(&bus);
    }
  }

  uint64_t TransportFailures() const {
    uint64_t n = 0;
    for (const auto& t : transports) {
      n += t->transport_failures();
    }
    return n;
  }

  SystemClock clock;
  Database db;
  InvalidationBus bus;
  std::vector<std::unique_ptr<CacheServer>> nodes;
  std::vector<std::shared_ptr<CacheTransport>> transports;
  CacheCluster cluster;
  Pincushion pincushion{&db, &clock};
};

// --- operations and outputs ----------------------------------------------------------------

enum class Outcome { kOk, kRejected, kFailed };

struct OpResult {
  bool read_only = true;
  Outcome outcome = Outcome::kOk;
  int retries = 0;
};

struct CheckTally {
  uint64_t reads = 0;
  uint64_t mismatches = 0;
};

void ReportFailure(const char* what, const Status& st) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 5) {
    std::fprintf(stderr, "operation failed: %s: %s\n", what, st.ToString().c_str());
  }
}

// Reads one value twice — through the cache at staleness 0 and through a no-cache client —
// and counts a mismatch when the serialized answers differ.
template <typename Read>
void CompareFresh(TxCacheClient* cached, TxCacheClient* direct, Read read, CheckTally* tally) {
  std::string answers[2];
  TxCacheClient* clients[2] = {cached, direct};
  for (int i = 0; i < 2; ++i) {
    if (!clients[i]->BeginRO(/*staleness=*/0).ok()) {
      ++tally->mismatches;
      return;
    }
    answers[i] = read(i);
    if (!clients[i]->Commit().ok()) {
      ++tally->mismatches;
      return;
    }
  }
  ++tally->reads;
  if (answers[0] != answers[1]) {
    ++tally->mismatches;
  }
}

// A loaded application stack plus its client sessions (one per input stream).
class World {
 public:
  virtual ~World() = default;
  // Runs the next operation of input stream `stream` (one per session).
  virtual OpResult RunOp(size_t stream) = 0;
  // Re-reads a seeded sample after the timed phase (writes have stopped).
  virtual void Check(uint64_t seed, CheckTally* tally) = 0;
  virtual std::vector<TxCacheClient*> Clients() = 0;
  Stack& stack() { return *stack_; }

  void Maintain() {
    stack_->pincushion.Sweep();
    stack_->db.Vacuum();
  }

 protected:
  std::unique_ptr<Stack> stack_;
};

TxCacheClient::Options ClientOptions(ClientMode mode, uint64_t seed) {
  TxCacheClient::Options o;
  o.mode = mode;
  o.rw_backoff_seed = seed;
  return o;
}

class RubisWorld final : public World {
 public:
  RubisWorld(const StackOptions& options, size_t streams, uint64_t seed) {
    stack_ = std::make_unique<Stack>(options);
    auto dataset = rubis::LoadRubis(&stack_->db, rubis::RubisScale::InMemory(kRubisScale),
                                    &stack_->clock, MixSeed(seed, 1));
    if (!dataset.ok()) {
      std::fprintf(stderr, "RUBiS load failed: %s\n", dataset.status().ToString().c_str());
      std::exit(2);
    }
    dataset_ = std::move(dataset.value());
    stack_->ConnectBus();
    for (size_t t = 0; t < streams; ++t) {
      clients_.push_back(std::make_unique<TxCacheClient>(
          &stack_->db, &stack_->pincushion, &stack_->cluster, &stack_->clock,
          ClientOptions(options.mode, MixSeed(seed, 2, t))));
      sessions_.push_back(std::make_unique<rubis::RubisSession>(
          clients_.back().get(), dataset_.get(), &stack_->clock, MixSeed(seed, 3, t)));
      Status st = sessions_.back()->app().EnableDerivedTags(&stack_->db);
      if (!st.ok()) {
        std::fprintf(stderr, "EnableDerivedTags: %s\n", st.ToString().c_str());
        std::exit(2);
      }
    }
  }

  ~RubisWorld() override {
    sessions_.clear();
    clients_.clear();
  }

  OpResult RunOp(size_t stream) override {
    rubis::RubisSession& session = *sessions_[stream];
    const rubis::Interaction interaction = session.Next();
    OpResult r;
    r.read_only = rubis::IsReadOnly(interaction);
    Status st = session.Run(interaction);
    // A serialization conflict aborts the interaction; the emulated browser re-submits it
    // (fresh picks, as RubisSession documents) and keeps waiting for its page.
    while (st.code() == StatusCode::kConflict && r.retries < kMaxConflictRetries) {
      ++r.retries;
      st = session.Run(interaction);
    }
    if (st.ok()) {
      r.outcome = Outcome::kOk;
    } else if (st.code() == StatusCode::kNotFound && st.message() == "item is no longer active") {
      r.outcome = Outcome::kRejected;
    } else {
      r.outcome = Outcome::kFailed;
      ReportFailure(rubis::InteractionName(interaction), st);
    }
    return r;
  }

  void Check(uint64_t seed, CheckTally* tally) override {
    Stack& s = *stack_;
    TxCacheClient cached(&s.db, &s.pincushion, &s.cluster, &s.clock,
                         ClientOptions(ClientMode::kConsistent, seed));
    TxCacheClient direct(&s.db, &s.pincushion, &s.cluster, &s.clock,
                         ClientOptions(ClientMode::kNoCache, seed));
    rubis::RubisApp cached_app(&cached, dataset_.get(), &s.clock);
    rubis::RubisApp direct_app(&direct, dataset_.get(), &s.clock);
    if (!cached_app.EnableDerivedTags(&s.db).ok() || !direct_app.EnableDerivedTags(&s.db).ok()) {
      ++tally->mismatches;
      return;
    }
    rubis::RubisApp* apps[2] = {&cached_app, &direct_app};
    Rng rng(MixSeed(seed, 4));
    for (int i = 0; i < 200; ++i) {
      const int64_t item = dataset_->PickActiveItem(rng);
      CompareFresh(&cached, &direct, [&](int k) {
        return SerializeToString(apps[k]->get_item(item));
      }, tally);
      CompareFresh(&cached, &direct, [&](int k) {
        return apps[k]->view_item_page(item).html;
      }, tally);
    }
    for (int i = 0; i < 100; ++i) {
      const int64_t user = dataset_->PickUser(rng);
      CompareFresh(&cached, &direct, [&](int k) {
        return SerializeToString(apps[k]->get_user(user));
      }, tally);
      CompareFresh(&cached, &direct, [&](int k) {
        return apps[k]->view_user_page(user).html;
      }, tally);
    }
  }

  std::vector<TxCacheClient*> Clients() override {
    std::vector<TxCacheClient*> out;
    for (auto& c : clients_) {
      out.push_back(c.get());
    }
    return out;
  }

 private:
  std::unique_ptr<rubis::RubisDataset> dataset_;
  std::vector<std::unique_ptr<TxCacheClient>> clients_;
  std::vector<std::unique_ptr<rubis::RubisSession>> sessions_;
};

std::string WikiTitle(int64_t i) { return "Article_" + std::to_string(i); }

// Single-client wiki: WikiApp allocates article and revision ids per instance, so one
// instance does both the load and every write.
class WikiWorld final : public World {
 public:
  WikiWorld(const StackOptions& options, uint64_t seed) : rng_(MixSeed(seed, 5)) {
    stack_ = std::make_unique<Stack>(options);
    Stack& s = *stack_;
    client_ = std::make_unique<TxCacheClient>(&s.db, &s.pincushion, &s.cluster, &s.clock,
                                              ClientOptions(options.mode, MixSeed(seed, 2)));
    app_ = std::make_unique<wiki::WikiApp>(client_.get(), &s.clock);
    Rng body_rng(MixSeed(seed, 6));
    static constexpr const char* kWords[] = {"cache", "page", "edit", "history", "user",
                                             "snapshot", "consistency", "article", "wiki",
                                             "revision", "render", "link", "talk", "the"};
    for (int b = 0; b < 32; ++b) {
      std::string body;
      while (body.size() < kWikiBodyBytes) {
        body += kWords[body_rng.Uniform(0, std::size(kWords) - 1)];
        body += ' ';
      }
      body.resize(kWikiBodyBytes);
      bodies_.push_back(std::move(body));
    }
    Require(wiki::CreateWikiSchema(&s.db), "schema");
    Require(client_->BeginRW(), "begin");
    for (int64_t u = 0; u < kWikiUsers; ++u) {
      Require(app_->RegisterUser(u, "editor_" + std::to_string(u)), "register user");
    }
    for (const char* prefix : kWikiPrefixes) {
      for (int m = 0; m < 8; ++m) {
        const std::string key = std::string(prefix) + "." + std::to_string(m);
        Require(app_->SetMessage(key, "text of " + key), "set message");
      }
    }
    Require(client_->Commit().status(), "commit");
    for (int64_t a = 0; a < kWikiArticles; ++a) {
      Require(client_->BeginRW(), "begin");
      Require(app_->EditArticle(a % kWikiUsers, WikiTitle(a), bodies_[a % bodies_.size()],
                                "created")
                  .status(),
              "create article");
      Require(client_->Commit().status(), "commit");
    }
    s.ConnectBus();
    Require(app_->EnableDerivedTags(&s.db), "EnableDerivedTags");
  }

  ~WikiWorld() override {
    app_.reset();
    client_.reset();
  }

  OpResult RunOp(size_t) override {
    const std::string title = WikiTitle(rng_.Zipf(kWikiArticles, 0.9) - 1);
    const int64_t pick = rng_.Uniform(0, 99);
    OpResult r;
    if (pick < 10) {
      r.read_only = false;
      Status st = client_->BeginRW();
      if (st.ok()) {
        auto rev = app_->EditArticle(rng_.Uniform(0, kWikiUsers - 1), title,
                                     bodies_[rng_.Uniform(0, bodies_.size() - 1)], "edit");
        st = rev.status();
        if (st.ok()) {
          st = client_->Commit().status();
        } else {
          client_->Abort();
        }
      }
      if (!st.ok()) {
        r.outcome = Outcome::kFailed;
        ReportFailure("EditArticle", st);
      }
      return r;
    }
    Status st = client_->BeginRO();
    if (st.ok()) {
      if (pick < 75) {
        app_->render_article(title);
      } else if (pick < 92) {
        app_->article_history(title, 10);
      } else {
        app_->localization(kWikiPrefixes[rng_.Uniform(0, std::size(kWikiPrefixes) - 1)]);
      }
      st = client_->Commit().status();
    }
    if (!st.ok()) {
      r.outcome = Outcome::kFailed;
      ReportFailure("wiki read", st);
    }
    return r;
  }

  void Check(uint64_t seed, CheckTally* tally) override {
    Stack& s = *stack_;
    TxCacheClient cached(&s.db, &s.pincushion, &s.cluster, &s.clock,
                         ClientOptions(ClientMode::kConsistent, seed));
    TxCacheClient direct(&s.db, &s.pincushion, &s.cluster, &s.clock,
                         ClientOptions(ClientMode::kNoCache, seed));
    wiki::WikiApp cached_app(&cached, &s.clock);
    wiki::WikiApp direct_app(&direct, &s.clock);
    if (!cached_app.EnableDerivedTags(&s.db).ok() || !direct_app.EnableDerivedTags(&s.db).ok()) {
      ++tally->mismatches;
      return;
    }
    wiki::WikiApp* apps[2] = {&cached_app, &direct_app};
    Rng rng(MixSeed(seed, 7));
    for (int i = 0; i < 150; ++i) {
      const std::string title = WikiTitle(rng.Zipf(kWikiArticles, 0.9) - 1);
      CompareFresh(&cached, &direct, [&](int k) {
        return SerializeToString(apps[k]->render_article(title));
      }, tally);
      CompareFresh(&cached, &direct, [&](int k) {
        return SerializeToString(apps[k]->article_history(title, 10));
      }, tally);
    }
  }

  std::vector<TxCacheClient*> Clients() override { return {client_.get()}; }

 private:
  static void Require(const Status& st, const char* what) {
    if (!st.ok()) {
      std::fprintf(stderr, "wiki load failed at %s: %s\n", what, st.ToString().c_str());
      std::exit(2);
    }
  }

  Rng rng_;
  std::vector<std::string> bodies_;
  std::unique_ptr<TxCacheClient> client_;
  std::unique_ptr<wiki::WikiApp> app_;
};

std::unique_ptr<World> MakeWorld(const WorkloadSpec& spec, const StackOptions& options,
                                 uint64_t seed) {
  if (spec.kind == Kind::kRubis) {
    return std::make_unique<RubisWorld>(options, spec.threads, seed);
  }
  return std::make_unique<WikiWorld>(options, seed);
}

// --- the closed loop ---------------------------------------------------------------------

struct PhaseResult {
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  std::vector<int64_t> ro_ns;
  std::vector<int64_t> rw_ns;
};

// Steps the calling thread round the CPUs it may run on. On a shared host the vCPUs run at
// visibly different speeds at the same moment; a lone client thread would sit on one of them
// for a whole phase, so a single-client phase steps round all of them, sampling the machine
// the way a phase with one client per CPU does.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) {
          cpus_.push_back(c);
        }
      }
    }
  }

  void Step() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

constexpr uint64_t kRotateEveryOps = 1024;

// Runs `total_ops` operations of the world's `streams` input streams (one per session) on
// `threads` closed-loop clients, each waiting for its answer before issuing the next, and
// times the whole batch. With one client per stream, client t serves stream t; a single client
// serves the streams round-robin. The clients draw from one shared count, so they finish
// together: a client on a slow vCPU does fewer operations instead of leaving the others idle
// while it catches up.
PhaseResult Drive(World* world, size_t threads, size_t streams, uint64_t total_ops, bool traced,
                  std::atomic<uint64_t>* ops_done) {
  std::vector<PhaseResult> per_thread(threads);
  std::atomic<bool> go{false};
  std::atomic<uint64_t> next_op{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      PhaseResult& mine = per_thread[t];
      CpuRotation rotation;
      mine.ro_ns.reserve(total_ops / threads * 2);
      mine.rw_ns.reserve(total_ops / threads / 2 + 16);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (uint64_t i = 0; next_op.fetch_add(1, std::memory_order_relaxed) < total_ops; ++i) {
        if (threads == 1 && i % kRotateEveryOps == 0) {
          rotation.Step();
        }
        const int64_t t0 = NowNs();
        if (traced) {
          Tracer::Get().BeginOp();
        }
        const OpResult r = world->RunOp((t + i * threads) % streams);
        if (traced) {
          Tracer::Get().EndOp(r.read_only);
        }
        (r.read_only ? mine.ro_ns : mine.rw_ns).push_back(NowNs() - t0);
        ++mine.ops;
        mine.retries += r.retries;
        mine.rejected += r.outcome == Outcome::kRejected;
        mine.failed += r.outcome == Outcome::kFailed;
        if ((ops_done->fetch_add(1, std::memory_order_relaxed) + 1) % kMaintenanceEveryOps ==
            0) {
          world->Maintain();
        }
      }
    });
  }
  const int64_t start = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) {
    w.join();
  }
  PhaseResult total;
  total.seconds = static_cast<double>(NowNs() - start) / 1e9;
  for (PhaseResult& r : per_thread) {
    total.ops += r.ops;
    total.rejected += r.rejected;
    total.failed += r.failed;
    total.retries += r.retries;
    total.ro_ns.insert(total.ro_ns.end(), r.ro_ns.begin(), r.ro_ns.end());
    total.rw_ns.insert(total.rw_ns.end(), r.rw_ns.begin(), r.rw_ns.end());
  }
  return total;
}

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const size_t k = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- counters at the public seams ------------------------------------------------------------

struct Counters {
  ClientStats client;
  CacheStats cache;
  DatabaseStats db;
  PincushionStats pins;
  uint64_t transport_failures = 0;

  static Counters Read(World* world) {
    Counters c;
    for (TxCacheClient* client : world->Clients()) {
      c.client += client->stats();
    }
    Stack& s = world->stack();
    c.cache = s.cluster.TotalStats();
    c.db = s.db.stats();
    c.pins = s.pincushion.stats();
    c.transport_failures = s.TransportFailures();
    return c;
  }
};

// --- one measured phase ---------------------------------------------------------------------

struct Phase {
  double setup_s = 0;
  double check_s = 0;
  PhaseResult run;
  Counters before;
  Counters after;
  CheckTally check;
  double cache_bytes_mb = 0;
  std::vector<Span> spans;
};

Phase RunPhase(const WorkloadSpec& spec, const StackOptions& options, uint64_t seed,
               uint64_t measured_ops, bool check) {
  Phase phase;
  std::atomic<uint64_t> ops_done{0};
  const int64_t t0 = NowNs();
  std::unique_ptr<World> world = MakeWorld(spec, options, seed);
  // The no-cache baseline is served by one client (see NOTES.md): with one per stream it is
  // bound by the database's single mutex, and its throughput then follows the host's
  // cross-CPU wake-up latency more than the code.
  const size_t clients = options.mode == ClientMode::kNoCache ? 1 : spec.threads;
  Drive(world.get(), clients, spec.threads, spec.warmup_ops, /*traced=*/false, &ops_done);
  phase.setup_s = static_cast<double>(NowNs() - t0) / 1e9;

  phase.before = Counters::Read(world.get());
  if (options.traced) {
    Tracer::Get().Collect();  // drop anything recorded outside the measured phase
    Tracer::Get().Enable(true);
  }
  phase.run =
      Drive(world.get(), clients, spec.threads, measured_ops, options.traced, &ops_done);
  if (options.traced) {
    Tracer::Get().Enable(false);
    phase.spans = Tracer::Get().Collect();
  }
  phase.after = Counters::Read(world.get());
  phase.cache_bytes_mb = static_cast<double>(world->stack().cluster.TotalBytesUsed()) / (1 << 20);
  if (check) {
    const int64_t c0 = NowNs();
    world->Check(MixSeed(seed, 8), &phase.check);
    phase.check_s = static_cast<double>(NowNs() - c0) / 1e9;
  }
  return phase;
}

// --- metrics --------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct SpanSummary {
  std::vector<int64_t> durations_ns;
  double total_ns = 0;
  double Mean() const { return Ratio(total_ns, static_cast<double>(durations_ns.size())); }
  double PercentileUs(double q) const { return Percentile(durations_ns, q) / 1e3; }
};

// Derives the per-layer metrics of a traced phase from its spans and counter deltas.
std::vector<Metric> LayerMetrics(const WorkloadSpec& spec, const Phase& traced,
                                 std::vector<std::string>* report) {
  const double ops = static_cast<double>(traced.run.ops);
  std::map<SpanKind, SpanSummary> by_kind;
  // Self time of each op: its duration minus the union of its children.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  double op_total_ns = 0;
  double self_total_ns = 0;
  for (const Span& s : traced.spans) {
    SpanSummary& k = by_kind[s.kind];
    k.durations_ns.push_back(s.end_ns - s.start_ns);
    k.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    if (s.kind != SpanKind::kOpRo && s.kind != SpanKind::kOpRw) {
      children[s.op].emplace_back(s.start_ns, s.end_ns);
    }
  }
  for (const Span& s : traced.spans) {
    if (s.kind != SpanKind::kOpRo && s.kind != SpanKind::kOpRw) {
      continue;
    }
    op_total_ns += static_cast<double>(s.end_ns - s.start_ns);
    int64_t covered = 0;
    auto it = children.find(s.op);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) {
          continue;
        }
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) {
          covered += cur_hi - cur_lo;
        }
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) {
        covered += cur_hi - cur_lo;
      }
    }
    self_total_ns += static_cast<double>(s.end_ns - s.start_ns - covered);
  }

  ClientStats client = traced.after.client;
  client -= traced.before.client;
  CacheStats cache = traced.after.cache;
  cache -= traced.before.cache;
  const DatabaseStats& db0 = traced.before.db;
  const DatabaseStats& db1 = traced.after.db;
  const double lookups = static_cast<double>(client.cache_hits + client.cache_misses);
  const double insert_attempts =
      static_cast<double>(client.cache_inserts + client.inserts_declined +
                          client.inserts_declined_too_large + client.inserts_unavailable);
  const double commits = static_cast<double>(db1.commits - db0.commits);
  const double messages =
      static_cast<double>(db1.invalidation_messages - db0.invalidation_messages);

  const SpanSummary& deliver = by_kind[SpanKind::kDeliver];
  const SpanSummary& lookup = by_kind[SpanKind::kLookup];
  const SpanSummary& insert = by_kind[SpanKind::kInsert];
  // The decorator times the transport call: the node itself on loopback, the wire and the
  // node over sockets. Each workload reports the layer it actually exercises; the other
  // layer's timings read 0 there.
  const SpanSummary empty;
  const SpanSummary& net_lookup = spec.socket ? lookup : empty;
  const SpanSummary& net_insert = spec.socket ? insert : empty;
  const SpanSummary& node_lookup = spec.socket ? empty : lookup;
  const SpanSummary& node_insert = spec.socket ? empty : insert;

  std::vector<Metric> m = {
      {"bus.deliveries_per_op", Ratio(static_cast<double>(deliver.durations_ns.size()), ops),
       "count"},
      {"bus.deliver.p50_us", deliver.PercentileUs(0.50), "us"},
      {"bus.deliver.p99_us", deliver.PercentileUs(0.99), "us"},
      {"bus.deliver.share", Ratio(deliver.total_ns, op_total_ns), "fraction"},
      {"net.lookup.p50_us", net_lookup.PercentileUs(0.50), "us"},
      {"net.lookup.p99_us", net_lookup.PercentileUs(0.99), "us"},
      {"net.insert.p50_us", net_insert.PercentileUs(0.50), "us"},
      {"net.transport_failures",
       static_cast<double>(traced.after.transport_failures - traced.before.transport_failures),
       "count"},
      {"cache.lookups_per_op", Ratio(static_cast<double>(cache.lookups), ops), "count"},
      {"cache.lookup.p50_us", node_lookup.PercentileUs(0.50), "us"},
      {"cache.lookup.p99_us", node_lookup.PercentileUs(0.99), "us"},
      {"cache.inserts_per_op", Ratio(insert_attempts, ops), "count"},
      {"cache.insert.p50_us", node_insert.PercentileUs(0.50), "us"},
      {"cache.insert.p99_us", node_insert.PercentileUs(0.99), "us"},
      {"cache.insert.declined_frac",
       Ratio(static_cast<double>(client.inserts_declined + client.inserts_declined_too_large),
             insert_attempts),
       "fraction"},
      {"cache.evictions_per_op", Ratio(static_cast<double>(cache.capacity_evictions()), ops),
       "count"},
      {"cache.hit_rate", Ratio(static_cast<double>(client.cache_hits), lookups), "fraction"},
      {"cache.miss.compulsory_frac", Ratio(static_cast<double>(client.miss_compulsory), lookups),
       "fraction"},
      {"cache.miss.capacity_frac", Ratio(static_cast<double>(client.miss_capacity), lookups),
       "fraction"},
      {"cache.miss.staleness_frac", Ratio(static_cast<double>(client.miss_staleness), lookups),
       "fraction"},
      {"cache.miss.consistency_frac",
       Ratio(static_cast<double>(client.miss_consistency), lookups), "fraction"},
      {"cache.bytes_used_mb", traced.cache_bytes_mb, "MiB"},
      {"core.self_us_per_op", Ratio(self_total_ns / 1e3, ops), "us"},
      {"core.cacheable_calls_per_op", Ratio(static_cast<double>(client.cacheable_calls), ops),
       "count"},
      {"core.pin_set_rejects_per_op", Ratio(static_cast<double>(client.pin_set_rejects), ops),
       "count"},
      {"db.queries_per_op", Ratio(static_cast<double>(db1.queries - db0.queries), ops), "count"},
      {"db.tuples_per_op",
       Ratio(static_cast<double>(db1.tuples_examined - db0.tuples_examined), ops), "count"},
      {"db.commits_per_op", Ratio(commits, ops), "count"},
      {"db.conflicts_per_op", Ratio(static_cast<double>(db1.conflicts - db0.conflicts), ops),
       "count"},
      {"db.tags_per_commit",
       Ratio(static_cast<double>(db1.invalidation_tags - db0.invalidation_tags), messages),
       "count"},
      {"pincushion.pins_per_op",
       Ratio(static_cast<double>(traced.after.pins.pins_handed_out -
                                 traced.before.pins.pins_handed_out),
             ops),
       "count"},
      {"rubis.rejected_frac", Ratio(static_cast<double>(traced.run.rejected), ops), "fraction"},
      // Throughput with tracing on; run.py sets it against an untraced phase to give
      // trace.overhead_frac.
      {"traced_ops_per_s", Ratio(ops, traced.run.seconds), "1/s"},
  };

  // Model against measured: each sim::CostModel constant with an outside measurement.
  const sim::CostModel model;
  char line[256];
  std::snprintf(line, sizeof(line),
                "model cache_op=%.1fus | measured mean net.lookup=%.2fus net.insert=%.2fus "
                "cache.lookup=%.2fus cache.insert=%.2fus",
                static_cast<double>(model.cache_op), net_lookup.Mean() / 1e3,
                net_insert.Mean() / 1e3, node_lookup.Mean() / 1e3, node_insert.Mean() / 1e3);
  report->push_back(line);
  std::snprintf(line, sizeof(line),
                "model db_commit=%.1fus (incl. invalidation publication) | measured bus.deliver "
                "per commit=%.2fus over %zu nodes, per delivery mean=%.2fus",
                static_cast<double>(model.db_commit), Ratio(deliver.total_ns / 1e3, commits),
                kCacheNodes, deliver.Mean() / 1e3);
  report->push_back(line);
  std::snprintf(line, sizeof(line),
                "model web_per_cacheable=%.1fus | measured core self time per cacheable "
                "call=%.2fus",
                static_cast<double>(model.web_per_cacheable),
                Ratio(self_total_ns / 1e3, static_cast<double>(client.cacheable_calls)));
  report->push_back(line);
  return m;
}

const char* SpanName(SpanKind kind, bool socket) {
  switch (kind) {
    case SpanKind::kOpRo:
      return "op.ro";
    case SpanKind::kOpRw:
      return "op.rw";
    case SpanKind::kLookup:
      return socket ? "net.lookup" : "cache.lookup";
    case SpanKind::kMultiLookup:
      return socket ? "net.multilookup" : "cache.multilookup";
    case SpanKind::kInsert:
      return socket ? "net.insert" : "cache.insert";
    case SpanKind::kIntent:
      return socket ? "net.intent" : "cache.intent";
    case SpanKind::kDeliver:
      return "bus.deliver";
  }
  return "?";
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans, bool socket) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "op\tspan\tstart_ns\tduration_ns\n";
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    out << s.op << '\t' << SpanName(s.kind, socket) << '\t' << (s.start_ns - origin) << '\t'
        << (s.end_ns - s.start_ns) << '\n';
  }
}

struct Args {
  std::string workload;
  std::string phase;
  uint64_t seed = 1;
  double seconds = 10;
  bool stale = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--stale-transport") {
      a->stale = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--phase") {
      a->phase = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->phase == "txcache" || a->phase == "nocache" || a->phase == "traced");
}

// Runs one phase in this process and prints its report; the last stdout line is a JSON
// object {"phase", "attempted", "failed", "metrics"} that run.py combines across phases.
int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload NAME --phase txcache|nocache|traced --seed N "
                 "--seconds S [--trace-out FILE] [--stale-transport]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const uint64_t measured_ops = std::max<uint64_t>(
      spec->threads,
      static_cast<uint64_t>(static_cast<double>(spec->ops_per_second) * args.seconds));
  StackOptions options;
  options.socket = spec->socket;
  options.stale = args.stale;
  options.cache_bytes_per_node = spec->cache_bytes_per_node;
  if (args.phase == "nocache") {
    options.mode = ClientMode::kNoCache;
  }
  options.traced = args.phase == "traced";

  std::printf("workload %s phase %s seed=%llu measured_ops=%llu threads=%zu transport=%s%s\n",
              spec->name, args.phase.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(measured_ops), spec->threads,
              spec->socket ? "socket" : "loopback", args.stale ? " (stale self-test)" : "");
  std::fflush(stdout);  // run.py reads measured_ops from this line even if the phase dies
  const Phase p = RunPhase(*spec, options, args.seed, measured_ops,
                           /*check=*/options.mode != ClientMode::kNoCache);
  const uint64_t transport_failures = p.after.transport_failures - p.before.transport_failures;
  const uint64_t attempted = p.run.ops + p.check.reads;
  const uint64_t failed = p.run.failed + p.check.mismatches + transport_failures;
  std::printf("setup %.3fs, %llu ops in %.3fs (%.0f ops/s), rejected=%llu retried=%llu "
              "failed=%llu, check: %llu reads %llu mismatches in %.3fs, transport "
              "failures=%llu\n",
              p.setup_s, static_cast<unsigned long long>(p.run.ops), p.run.seconds,
              Ratio(static_cast<double>(p.run.ops), p.run.seconds),
              static_cast<unsigned long long>(p.run.rejected),
              static_cast<unsigned long long>(p.run.retries),
              static_cast<unsigned long long>(p.run.failed),
              static_cast<unsigned long long>(p.check.reads),
              static_cast<unsigned long long>(p.check.mismatches), p.check_s,
              static_cast<unsigned long long>(transport_failures));

  std::vector<Metric> metrics;
  if (options.traced) {
    std::vector<std::string> report;
    metrics = LayerMetrics(*spec, p, &report);
    if (!args.trace_out.empty()) {
      WriteSpans(args.trace_out, p.spans, spec->socket);
      report.push_back("spans written to " + args.trace_out + " (" +
                       std::to_string(p.spans.size()) + " spans)");
    }
    for (const std::string& line : report) {
      std::printf("%s\n", line.c_str());
    }
  } else {
    metrics = {
        {"ops_per_s", Ratio(static_cast<double>(p.run.ops), p.run.seconds), "1/s"},
        {"ro_p50_us", Percentile(p.run.ro_ns, 0.50) / 1e3, "us"},
        {"ro_p99_us", Percentile(p.run.ro_ns, 0.99) / 1e3, "us"},
        {"rw_p50_us", Percentile(p.run.rw_ns, 0.50) / 1e3, "us"},
        {"rw_p99_us", Percentile(p.run.rw_ns, 0.99) / 1e3, "us"},
        {"setup_s", p.setup_s, "s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
  }
  std::printf("{\"phase\": \"%s\", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              args.phase.c_str(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
