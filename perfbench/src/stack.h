#ifndef CSXA_PERFBENCH_STACK_H_
#define CSXA_PERFBENCH_STACK_H_

/// \file stack.h
/// \brief The serving stack under test, built from public constructors:
///
///   RetryingClient → CachingClient → AsyncDispatcher (2 workers)
///     → ReplicatedService (3 replicas, majority quorum)
///     → idle FaultInjectingService per replica → ShardedService (4 shards)
///     → DspServer, or DurableServer over PosixEnv
///
/// with dissem::InvalidationFanout wired from the replication commit hook
/// into the cache. With a tracer, a span decorator sits at every boundary
/// (and at the Env under each durable store); without one the stack is
/// exactly the program's own topology.

#include <memory>
#include <string>
#include <vector>

#include "dissem/invalidation.h"
#include "dsp/async.h"
#include "dsp/blockfile.h"
#include "dsp/caching.h"
#include "dsp/fault.h"
#include "dsp/replicated.h"
#include "dsp/retrying.h"
#include "dsp/sharded.h"
#include "trace.h"

namespace perfbench {

constexpr size_t kReplicas = 3;
constexpr size_t kShards = 4;
constexpr size_t kDispatchWorkers = 2;

struct StackOptions {
  /// Empty: in-memory DspServer shards. Otherwise each replica's shards
  /// are DurableServers in subdirectories of this directory.
  std::string durable_dir;
  uint64_t seed = 1;
  /// Non-null: build the span decorators.
  Tracer* tracer = nullptr;
};

/// Counters of the stack's layers, read between phases.
struct StackCounters {
  uint64_t retries = 0;
  uint64_t retry_exhausted = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  uint64_t fanout_invalidations = 0;
  uint64_t notifications_delivered = 0;
  uint64_t stale_reads_served = 0;
  uint64_t faults_injected = 0;
  /// Requests replica 0's router sent to each shard.
  std::vector<uint64_t> shard_requests;
};

class Stack {
 public:
  static csxa::Result<std::unique_ptr<Stack>> Build(const StackOptions& options);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// What terminals and publishers talk to.
  csxa::dsp::Service* top() { return top_; }
  StackCounters counters() const;
  size_t replicas() const { return injectors_.size(); }

 private:
  Stack() = default;

  // Declaration order is construction order; destruction runs bottom-up
  // from the client edge, so the dispatcher joins its workers before
  // anything they call is destroyed.
  std::unique_ptr<SpanEnv> env_;
  std::vector<std::unique_ptr<csxa::dsp::Service>> stores_;
  std::vector<std::unique_ptr<csxa::dsp::ShardedService>> routers_;
  std::vector<std::unique_ptr<csxa::dsp::FaultInjectingService>> injectors_;
  std::vector<std::unique_ptr<csxa::dsp::Service>> spans_below_;
  std::unique_ptr<csxa::dsp::ReplicatedService> replicated_;
  std::unique_ptr<DispatchHop> hop_;
  std::unique_ptr<csxa::dsp::Service> replicated_span_;
  std::unique_ptr<csxa::dissem::InvalidationFanout> fanout_;
  std::unique_ptr<csxa::dsp::AsyncDispatcher> dispatcher_;
  std::unique_ptr<csxa::dsp::Service> dispatch_span_;
  std::unique_ptr<csxa::dsp::CachingClient> cached_;
  std::unique_ptr<csxa::dsp::Service> cache_span_;
  std::unique_ptr<csxa::dsp::RetryingClient> retrying_;
  std::unique_ptr<csxa::dsp::Service> retry_span_;
  csxa::dsp::Service* top_ = nullptr;
};

}  // namespace perfbench

#endif  // CSXA_PERFBENCH_STACK_H_
