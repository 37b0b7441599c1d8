// In-memory span tracing for the end-to-end benchmark, recorded from outside the program at
// its public seams:
//
//   * an op root span per benchmark operation (the benchmark loop opens and closes it);
//   * one child span per cache RPC, from TimedTransport, a CacheTransport decorator installed
//     with CacheCluster::AddNode(std::shared_ptr<CacheTransport>);
//   * one child span per invalidation delivery, from the InvalidationBus delivery hook.
//     Deliver runs on the committing thread, so the thread's current op is its parent.
//
// Spans stay in per-thread buffers until Collect(); nothing is written while an op runs.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/transport.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kOpRo,         // root: a read-only operation
  kOpRw,         // root: a read-write operation
  kLookup,       // child: CacheTransport::Lookup
  kMultiLookup,  // child: CacheTransport::MultiLookup (either form)
  kInsert,       // child: CacheTransport::Insert
  kIntent,       // child: CacheTransport::AcquireIntent / ReleaseIntent
  kDeliver,      // child: InvalidationSubscriber::Deliver through the bus hook
};

struct Span {
  uint64_t op = 0;  // id of the root span; shared by every span of one operation
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kOpRo;
};

// Process-wide span recorder. Recording happens only between Enable(true) and Enable(false),
// and child spans only inside an open op on the recording thread.
class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  void Enable(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  void BeginOp() {
    ThreadState* s = Local();
    s->op = next_op_.fetch_add(1, std::memory_order_relaxed);
    s->op_start = NowNs();
  }

  void EndOp(bool read_only) {
    ThreadState* s = Local();
    s->spans.push_back(
        Span{s->op, s->op_start, NowNs(), read_only ? SpanKind::kOpRo : SpanKind::kOpRw});
    s->op = 0;
  }

  // Records a child of the calling thread's current op; dropped outside an op.
  void Record(SpanKind kind, int64_t start_ns, int64_t end_ns) {
    if (!enabled()) {
      return;
    }
    ThreadState* s = Local();
    if (s->op != 0) {
      s->spans.push_back(Span{s->op, start_ns, end_ns, kind});
    }
  }

  // Moves every recorded span out (per-thread buffers are emptied, not freed).
  std::vector<Span> Collect() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto& t : threads_) {
      out.insert(out.end(), t->spans.begin(), t->spans.end());
      t->spans.clear();
    }
    return out;
  }

 private:
  struct ThreadState {
    std::vector<Span> spans;
    uint64_t op = 0;
    int64_t op_start = 0;
  };

  ThreadState* Local() {
    thread_local ThreadState* state = nullptr;
    if (state == nullptr) {
      auto owned = std::make_unique<ThreadState>();
      owned->spans.reserve(1 << 16);
      state = owned.get();
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::move(owned));
    }
    return state;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_op_{1};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;  // owned here; threads keep a pointer
};

// Times every data-plane RPC of the wrapped transport as a child span of the current op.
class TimedTransport final : public txcache::CacheTransport {
 public:
  explicit TimedTransport(std::shared_ptr<txcache::CacheTransport> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }

  txcache::LookupResponse Lookup(const txcache::LookupRequest& req) override {
    const int64_t t0 = NowNs();
    txcache::LookupResponse resp = inner_->Lookup(req);
    Tracer::Get().Record(SpanKind::kLookup, t0, NowNs());
    return resp;
  }
  txcache::MultiLookupResponse MultiLookup(const txcache::MultiLookupRequest& req) override {
    const int64_t t0 = NowNs();
    txcache::MultiLookupResponse resp = inner_->MultiLookup(req);
    Tracer::Get().Record(SpanKind::kMultiLookup, t0, NowNs());
    return resp;
  }
  void MultiLookup(const txcache::MultiLookupRequest& req, const std::vector<uint32_t>& indices,
                   txcache::MultiLookupResponse* out) override {
    const int64_t t0 = NowNs();
    inner_->MultiLookup(req, indices, out);
    Tracer::Get().Record(SpanKind::kMultiLookup, t0, NowNs());
  }
  txcache::Status Insert(const txcache::InsertRequest& req,
                         std::shared_ptr<const txcache::AdvisoryHints>* hints_out) override {
    const int64_t t0 = NowNs();
    txcache::Status st = inner_->Insert(req, hints_out);
    Tracer::Get().Record(SpanKind::kInsert, t0, NowNs());
    return st;
  }
  txcache::IntentResponse AcquireIntent(const txcache::IntentRequest& req) override {
    const int64_t t0 = NowNs();
    txcache::IntentResponse resp = inner_->AcquireIntent(req);
    Tracer::Get().Record(SpanKind::kIntent, t0, NowNs());
    return resp;
  }
  txcache::IntentResponse ReleaseIntent(const txcache::IntentRequest& req) override {
    const int64_t t0 = NowNs();
    txcache::IntentResponse resp = inner_->ReleaseIntent(req);
    Tracer::Get().Record(SpanKind::kIntent, t0, NowNs());
    return resp;
  }
  txcache::CacheServer* local_server() const override { return inner_->local_server(); }
  uint64_t transport_failures() const override { return inner_->transport_failures(); }

 private:
  const std::shared_ptr<txcache::CacheTransport> inner_;
};

// A deliberately broken transport for the benchmark's self-test: it remembers the first value
// ever inserted under each key and answers every later hit on that key with it, under a
// validity interval widened from that value's lower bound to the current hit's upper bound.
// The client accepts such answers, so the output check must catch them.
class StaleTransport final : public txcache::CacheTransport {
 public:
  explicit StaleTransport(std::shared_ptr<txcache::CacheTransport> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }

  txcache::LookupResponse Lookup(const txcache::LookupRequest& req) override {
    txcache::LookupResponse resp = inner_->Lookup(req);
    Supersede(req.key, &resp);
    return resp;
  }
  txcache::MultiLookupResponse MultiLookup(const txcache::MultiLookupRequest& req) override {
    txcache::MultiLookupResponse resp = inner_->MultiLookup(req);
    for (size_t i = 0; i < resp.responses.size(); ++i) {
      Supersede(req.lookups[i].key, &resp.responses[i]);
    }
    return resp;
  }
  void MultiLookup(const txcache::MultiLookupRequest& req, const std::vector<uint32_t>& indices,
                   txcache::MultiLookupResponse* out) override {
    inner_->MultiLookup(req, indices, out);
    for (uint32_t i : indices) {
      Supersede(req.lookups[i].key, &out->responses[i]);
    }
  }
  txcache::Status Insert(const txcache::InsertRequest& req,
                         std::shared_ptr<const txcache::AdvisoryHints>* hints_out) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      first_.try_emplace(req.key, std::make_shared<const std::string>(req.value),
                         req.interval.lower);
    }
    return inner_->Insert(req, hints_out);
  }
  txcache::IntentResponse AcquireIntent(const txcache::IntentRequest& req) override {
    return inner_->AcquireIntent(req);
  }
  txcache::IntentResponse ReleaseIntent(const txcache::IntentRequest& req) override {
    return inner_->ReleaseIntent(req);
  }
  txcache::CacheServer* local_server() const override { return inner_->local_server(); }
  uint64_t transport_failures() const override { return inner_->transport_failures(); }

 private:
  void Supersede(const std::string& key, txcache::LookupResponse* resp) {
    if (!resp->hit) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = first_.find(key);
    if (it != first_.end()) {
      resp->value = it->second.first;
      resp->interval.lower = std::min(resp->interval.lower, it->second.second);
    }
  }

  const std::shared_ptr<txcache::CacheTransport> inner_;
  std::mutex mu_;
  std::unordered_map<std::string, std::pair<std::shared_ptr<const std::string>, txcache::Timestamp>>
      first_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
