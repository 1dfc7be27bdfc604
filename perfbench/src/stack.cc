#include "stack.h"

#include "common/random.h"
#include "crypto/keys.h"
#include "dsp/durable.h"
#include "dsp/store.h"

namespace perfbench {

using csxa::Result;
using csxa::dsp::Service;

Stack::~Stack() = default;

Result<std::unique_ptr<Stack>> Stack::Build(const StackOptions& options) {
  std::unique_ptr<Stack> s(new Stack());
  Tracer* tracer = options.tracer;
  // With a tracer, `wrap` puts a span decorator over a boundary and
  // returns the decorated service; without one it returns the service.
  auto wrap = [&](Layer layer, Service* inner) -> Service* {
    if (tracer == nullptr) return inner;
    s->spans_below_.push_back(std::make_unique<SpanService>(tracer, layer, inner));
    return s->spans_below_.back().get();
  };

  csxa::dsp::Env* env = csxa::dsp::PosixEnv::Default();
  if (tracer != nullptr && !options.durable_dir.empty()) {
    s->env_ = std::make_unique<SpanEnv>(tracer, env);
    env = s->env_.get();
  }

  std::vector<Service*> replica_ptrs;
  for (size_t r = 0; r < kReplicas; ++r) {
    std::vector<Service*> shard_ptrs;
    for (size_t i = 0; i < kShards; ++i) {
      if (options.durable_dir.empty()) {
        s->stores_.push_back(std::make_unique<csxa::dsp::DspServer>());
      } else {
        csxa::dsp::DurableOptions dur;
        dur.directory = options.durable_dir + "/r" + std::to_string(r) + "-s" +
                        std::to_string(i);
        dur.store_id = "bench-r" + std::to_string(r) + "-s" + std::to_string(i);
        csxa::Rng key_rng(options.seed * 63 + r * 17 + i);
        dur.key = csxa::crypto::SymmetricKey::Generate(&key_rng);
        dur.env = env;
        CSXA_ASSIGN_OR_RETURN(std::unique_ptr<csxa::dsp::DurableServer> store,
                              csxa::dsp::DurableServer::Open(dur));
        s->stores_.push_back(std::move(store));
      }
      shard_ptrs.push_back(wrap(Layer::kStore, s->stores_.back().get()));
    }
    s->routers_.push_back(std::make_unique<csxa::dsp::ShardedService>(shard_ptrs));
    csxa::dsp::FaultOptions fopt;  // idle: no schedule, no random faults
    fopt.seed = options.seed * 131 + r;
    s->injectors_.push_back(std::make_unique<csxa::dsp::FaultInjectingService>(
        wrap(Layer::kShard, s->routers_.back().get()), fopt));
    replica_ptrs.push_back(wrap(Layer::kFault, s->injectors_.back().get()));
  }
  s->replicated_ = std::make_unique<csxa::dsp::ReplicatedService>(
      replica_ptrs, csxa::dsp::ReplicationOptions{});  // majority quorum

  Service* below_dispatch = s->replicated_.get();
  if (tracer != nullptr) {
    s->hop_ = std::make_unique<DispatchHop>();
    s->replicated_span_ = std::make_unique<HopSpanService>(
        tracer, Layer::kReplicate, s->hop_.get(), below_dispatch);
    below_dispatch = s->replicated_span_.get();
  }

  s->fanout_ = std::make_unique<csxa::dissem::InvalidationFanout>();
  csxa::dissem::InvalidationFanout* fanout = s->fanout_.get();
  s->replicated_->set_on_write_committed(
      [fanout](const std::string& doc_id, uint64_t rules_version) {
        fanout->Publish(doc_id, rules_version);
      });

  csxa::dsp::AsyncDispatcher::Options dopt;
  dopt.workers = kDispatchWorkers;
  s->dispatcher_ =
      std::make_unique<csxa::dsp::AsyncDispatcher>(below_dispatch, dopt);
  Service* dispatch = s->dispatcher_.get();
  if (tracer != nullptr) {
    s->dispatch_span_ = std::make_unique<DispatchSpanService>(
        tracer, s->hop_.get(), s->dispatcher_.get());
    dispatch = s->dispatch_span_.get();
  }

  s->cached_ = std::make_unique<csxa::dsp::CachingClient>(dispatch);
  csxa::dsp::CachingClient* cached = s->cached_.get();
  fanout->Subscribe([cached](const std::string& doc_id, uint64_t version) {
    cached->Invalidate(doc_id, version);
  });
  Service* cache = cached;
  if (tracer != nullptr) {
    s->cache_span_ = std::make_unique<SpanService>(tracer, Layer::kCache, cache);
    cache = s->cache_span_.get();
  }

  s->retrying_ = std::make_unique<csxa::dsp::RetryingClient>(
      cache, csxa::dsp::RetryOptions{});
  s->top_ = s->retrying_.get();
  if (tracer != nullptr) {
    s->retry_span_ =
        std::make_unique<SpanService>(tracer, Layer::kRetry, s->top_);
    s->top_ = s->retry_span_.get();
  }
  return s;
}

StackCounters Stack::counters() const {
  StackCounters c;
  c.retries = retrying_->retries();
  c.retry_exhausted = retrying_->exhausted();
  c.cache_hits = cached_->hits();
  c.cache_misses = cached_->misses();
  c.cache_invalidations = cached_->invalidations();
  c.fanout_invalidations = cached_->fanout_invalidations();
  c.notifications_delivered = fanout_->delivered();
  c.stale_reads_served = replicated_->replication_stats().stale_reads_served;
  for (const auto& injector : injectors_) {
    c.faults_injected += injector->faults_injected();
  }
  c.shard_requests = routers_[0]->shard_requests();
  return c;
}

}  // namespace perfbench
