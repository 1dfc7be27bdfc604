#ifndef CSXA_PERFBENCH_TRACE_H_
#define CSXA_PERFBENCH_TRACE_H_

/// \file trace.h
/// \brief Outside-in span recording for the serving stack.
///
/// The benchmark times calls into each layer's public functions from its
/// own code: span-recording decorators sit at every dsp::Service boundary
/// of the stack (retry, cache, dispatch, replicate, fault, shard, store)
/// and at the dsp::Env / dsp::File boundary under a durable store, and the
/// client loop wraps Terminal::Query, Terminal::Provision,
/// Publisher::Publish and Publisher::UpdateRules. Nothing in the program
/// changes.
///
/// A span is (id, parent, layer, op, start, end, bytes). The parent is the
/// span open on the calling thread, except across the AsyncDispatcher's
/// thread hop, where DispatchHop carries it: the client side records the
/// dispatch span id per document in submission order, and the worker side
/// pops it in execution order (the dispatcher runs each document's
/// requests FIFO on one lane).
///
/// Spans are kept in memory (one buffer per thread) and written out when
/// the run ends. Self time is a span's duration minus the part of its
/// interval covered by its children.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dsp/async.h"
#include "dsp/blockfile.h"
#include "dsp/service.h"

namespace perfbench {

/// Layers a span can belong to. The first four are roots opened by the
/// client loop; the rest are stack boundaries.
enum class Layer : uint8_t {
  kQuery,      ///< Terminal::Query (card side; dsp children subtracted)
  kProvision,  ///< Terminal::Provision (pki)
  kPublish,    ///< Publisher::Publish
  kUpdate,     ///< Publisher::UpdateRules
  kRetry,
  kCache,
  kDispatch,
  kReplicate,
  kFault,
  kShard,
  kStore,
  kEnvRead,
  kEnvAppend,
  kEnvSync,
  kEnvMeta,  ///< open / exists / remove / mkdir / truncate / size
  kCount,
};
constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);
const char* LayerName(Layer layer);

/// `op` value of spans that are not dsp requests.
constexpr uint8_t kNoOp = 0xff;
/// True for dsp ops that write (kPublish, kUpdateRules, kRemove).
bool IsWriteOp(uint8_t op);

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;  ///< response wire bytes, or device bytes moved
  Layer layer = Layer::kQuery;
  uint8_t op = kNoOp;
};

/// \brief Process-wide span sink. Recording is off until Start().
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Start() { on_.store(true, std::memory_order_release); }
  void Stop() { on_.store(false, std::memory_order_release); }
  bool on() const { return on_.load(std::memory_order_acquire); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const SpanRecord& span);
  /// Moves every recorded span out of the per-thread buffers.
  std::vector<SpanRecord> Drain();

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<SpanRecord> spans;
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> on_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// \brief RAII span. With a null or stopped tracer it records nothing.
class TraceSpan {
 public:
  /// Parent is the span open on this thread.
  TraceSpan(Tracer* tracer, Layer layer, uint8_t op = kNoOp);
  /// Explicit parent (the far side of a thread hop).
  TraceSpan(Tracer* tracer, Layer layer, uint8_t op, uint64_t parent);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  uint64_t id() const { return rec_.id; }
  void set_bytes(uint64_t bytes) { rec_.bytes = bytes; }

 private:
  Tracer* tracer_ = nullptr;  ///< null when not recording
  uint64_t saved_current_ = 0;
  SpanRecord rec_;
};

/// \brief Span decorator for one dsp::Service boundary.
class SpanService : public csxa::dsp::Service {
 public:
  SpanService(Tracer* tracer, Layer layer, csxa::dsp::Service* backend)
      : tracer_(tracer), layer_(layer), backend_(backend) {}
  csxa::Result<csxa::dsp::Response> Execute(
      csxa::dsp::Request request) override;
  csxa::dsp::ServiceStats stats() const override { return backend_->stats(); }

 private:
  Tracer* tracer_;
  Layer layer_;
  csxa::dsp::Service* backend_;
};

/// \brief Carries the dispatch span across the AsyncDispatcher's hop.
///
/// The client side (DispatchSpanService) pushes its span id and submits
/// under one lock, so per-document push order equals submission order;
/// the worker side (HopSpanService) pops in the dispatcher's per-document
/// FIFO execution order.
class DispatchHop {
 public:
  void Push(const std::string& doc_id, uint64_t span_id);
  uint64_t Pop(const std::string& doc_id);
  std::mutex& submit_mu() { return submit_mu_; }

 private:
  std::mutex submit_mu_;  ///< held across Push + Submit
  std::mutex mu_;         ///< guards pending_
  std::unordered_map<std::string, std::deque<uint64_t>> pending_;
};

/// Client side of the hop: the dispatch boundary.
class DispatchSpanService : public csxa::dsp::Service {
 public:
  DispatchSpanService(Tracer* tracer, DispatchHop* hop,
                      csxa::dsp::AsyncDispatcher* dispatcher)
      : tracer_(tracer), hop_(hop), dispatcher_(dispatcher) {}
  csxa::Result<csxa::dsp::Response> Execute(
      csxa::dsp::Request request) override;
  csxa::dsp::ServiceStats stats() const override {
    return dispatcher_->stats();
  }

 private:
  Tracer* tracer_;
  DispatchHop* hop_;
  csxa::dsp::AsyncDispatcher* dispatcher_;
};

/// Worker side of the hop: the boundary below the dispatcher, whose spans
/// take the dispatch span as parent.
class HopSpanService : public csxa::dsp::Service {
 public:
  HopSpanService(Tracer* tracer, Layer layer, DispatchHop* hop,
                 csxa::dsp::Service* backend)
      : tracer_(tracer), layer_(layer), hop_(hop), backend_(backend) {}
  csxa::Result<csxa::dsp::Response> Execute(
      csxa::dsp::Request request) override;
  csxa::dsp::ServiceStats stats() const override { return backend_->stats(); }

 private:
  Tracer* tracer_;
  Layer layer_;
  DispatchHop* hop_;
  csxa::dsp::Service* backend_;
};

/// \brief Span decorator for the device: every File call and the Env's
/// directory calls become env spans. Appends and reads carry their bytes.
class SpanEnv : public csxa::dsp::Env {
 public:
  SpanEnv(Tracer* tracer, csxa::dsp::Env* base)
      : tracer_(tracer), base_(base) {}
  csxa::Result<std::unique_ptr<csxa::dsp::File>> Open(const std::string& path,
                                                     bool create) override;
  bool Exists(const std::string& path) const override;
  csxa::Status Remove(const std::string& path) override;
  csxa::Status CreateDir(const std::string& path) override;
  csxa::Status SyncDir(const std::string& path) override;
  csxa::Result<csxa::Bytes> RandomBytes(size_t n) override {
    return base_->RandomBytes(n);
  }

 private:
  Tracer* tracer_;
  csxa::dsp::Env* base_;
};

/// Per-span self time: duration minus the union of its children's
/// intervals clipped to its own. Indexed like `spans`.
std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans);

/// Root span of every span (its own index for a root), indexed like
/// `spans`; SIZE_MAX when the chain is broken.
std::vector<size_t> RootIndex(const std::vector<SpanRecord>& spans);

/// Writes one span per line: id parent layer op start_ns end_ns bytes.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // CSXA_PERFBENCH_TRACE_H_
