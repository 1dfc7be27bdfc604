#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <utility>

namespace perfbench {

using csxa::Bytes;
using csxa::Result;
using csxa::Status;
using csxa::dsp::Request;
using csxa::dsp::Response;

namespace {

thread_local uint64_t tls_current_span = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint8_t OpOf(const Request& request) {
  return static_cast<uint8_t>(request.op);
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kQuery: return "query";
    case Layer::kProvision: return "provision";
    case Layer::kPublish: return "publish";
    case Layer::kUpdate: return "update";
    case Layer::kRetry: return "retry";
    case Layer::kCache: return "cache";
    case Layer::kDispatch: return "dispatch";
    case Layer::kReplicate: return "replicate";
    case Layer::kFault: return "fault";
    case Layer::kShard: return "shard";
    case Layer::kStore: return "store";
    case Layer::kEnvRead: return "env_read";
    case Layer::kEnvAppend: return "env_append";
    case Layer::kEnvSync: return "env_sync";
    case Layer::kEnvMeta: return "env_meta";
    case Layer::kCount: break;
  }
  return "?";
}

bool IsWriteOp(uint8_t op) {
  using csxa::dsp::Op;
  return op == static_cast<uint8_t>(Op::kPublish) ||
         op == static_cast<uint8_t>(Op::kUpdateRules) ||
         op == static_cast<uint8_t>(Op::kRemove);
}

// --- Tracer -------------------------------------------------------------

Tracer::Buffer* Tracer::ThreadBuffer() {
  // One buffer per (thread, tracer); the tracer owns it so it outlives the
  // thread (dispatcher workers exit when their stack is torn down).
  thread_local Tracer* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    owner = this;
  }
  return buffer;
}

void Tracer::Record(const SpanRecord& span) {
  Buffer* buffer = ThreadBuffer();
  std::lock_guard lock(buffer->mu);
  buffer->spans.push_back(span);
}

std::vector<SpanRecord> Tracer::Drain() {
  std::vector<SpanRecord> all;
  std::lock_guard lock(mu_);
  for (auto& buffer : buffers_) {
    std::lock_guard buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return all;
}

// --- TraceSpan ----------------------------------------------------------

TraceSpan::TraceSpan(Tracer* tracer, Layer layer, uint8_t op)
    : TraceSpan(tracer, layer, op, tls_current_span) {}

TraceSpan::TraceSpan(Tracer* tracer, Layer layer, uint8_t op,
                     uint64_t parent) {
  if (tracer == nullptr || !tracer->on()) return;
  tracer_ = tracer;
  rec_.id = tracer->NextId();
  rec_.parent = parent;
  rec_.layer = layer;
  rec_.op = op;
  saved_current_ = tls_current_span;
  tls_current_span = rec_.id;
  rec_.start_ns = NowNs();
}

TraceSpan::~TraceSpan() {
  if (tracer_ == nullptr) return;
  rec_.end_ns = NowNs();
  tls_current_span = saved_current_;
  tracer_->Record(rec_);
}

// --- Service decorators ---------------------------------------------------

Result<Response> SpanService::Execute(Request request) {
  TraceSpan span(tracer_, layer_, OpOf(request));
  Result<Response> result = backend_->Execute(std::move(request));
  if (result.ok()) span.set_bytes(result.value().wire_bytes);
  return result;
}

void DispatchHop::Push(const std::string& doc_id, uint64_t span_id) {
  std::lock_guard lock(mu_);
  pending_[doc_id].push_back(span_id);
}

uint64_t DispatchHop::Pop(const std::string& doc_id) {
  std::lock_guard lock(mu_);
  auto it = pending_.find(doc_id);
  if (it == pending_.end() || it->second.empty()) return 0;
  const uint64_t id = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) pending_.erase(it);
  return id;
}

Result<Response> DispatchSpanService::Execute(Request request) {
  TraceSpan span(tracer_, Layer::kDispatch, OpOf(request));
  std::future<Result<Response>> future;
  {
    // Push and submit together: the worker pops ids in the order the
    // dispatcher runs this document's requests, which is submission order.
    std::lock_guard lock(hop_->submit_mu());
    hop_->Push(request.doc_id, span.id());
    future = dispatcher_->Submit(std::move(request));
  }
  Result<Response> result = future.get();
  if (result.ok()) span.set_bytes(result.value().wire_bytes);
  return result;
}

Result<Response> HopSpanService::Execute(Request request) {
  const uint64_t parent = hop_->Pop(request.doc_id);
  TraceSpan span(tracer_, layer_, OpOf(request), parent);
  Result<Response> result = backend_->Execute(std::move(request));
  if (result.ok()) span.set_bytes(result.value().wire_bytes);
  return result;
}

// --- Env decorator --------------------------------------------------------

namespace {

class SpanFile : public csxa::dsp::File {
 public:
  SpanFile(Tracer* tracer, std::unique_ptr<csxa::dsp::File> base)
      : tracer_(tracer), base_(std::move(base)) {}

  Result<Bytes> ReadAt(uint64_t offset, size_t n) const override {
    TraceSpan span(tracer_, Layer::kEnvRead);
    Result<Bytes> result = base_->ReadAt(offset, n);
    if (result.ok()) span.set_bytes(result.value().size());
    return result;
  }
  Status Append(csxa::Span data) override {
    TraceSpan span(tracer_, Layer::kEnvAppend);
    span.set_bytes(data.size());
    return base_->Append(data);
  }
  Status WriteAt(uint64_t offset, csxa::Span data) override {
    TraceSpan span(tracer_, Layer::kEnvAppend);
    span.set_bytes(data.size());
    return base_->WriteAt(offset, data);
  }
  Status Truncate(uint64_t size) override {
    TraceSpan span(tracer_, Layer::kEnvMeta);
    return base_->Truncate(size);
  }
  Status Sync() override {
    TraceSpan span(tracer_, Layer::kEnvSync);
    return base_->Sync();
  }
  Result<uint64_t> Size() const override {
    TraceSpan span(tracer_, Layer::kEnvMeta);
    return base_->Size();
  }

 private:
  Tracer* tracer_;
  std::unique_ptr<csxa::dsp::File> base_;
};

}  // namespace

Result<std::unique_ptr<csxa::dsp::File>> SpanEnv::Open(const std::string& path,
                                                      bool create) {
  TraceSpan span(tracer_, Layer::kEnvMeta);
  Result<std::unique_ptr<csxa::dsp::File>> file = base_->Open(path, create);
  if (!file.ok()) return file.status();
  return std::unique_ptr<csxa::dsp::File>(
      new SpanFile(tracer_, std::move(file).value()));
}

bool SpanEnv::Exists(const std::string& path) const {
  TraceSpan span(tracer_, Layer::kEnvMeta);
  return base_->Exists(path);
}

Status SpanEnv::Remove(const std::string& path) {
  TraceSpan span(tracer_, Layer::kEnvMeta);
  return base_->Remove(path);
}

Status SpanEnv::CreateDir(const std::string& path) {
  TraceSpan span(tracer_, Layer::kEnvMeta);
  return base_->CreateDir(path);
}

Status SpanEnv::SyncDir(const std::string& path) {
  TraceSpan span(tracer_, Layer::kEnvSync);
  return base_->SyncDir(path);
}

// --- Reduction -------------------------------------------------------------

std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Children's intervals, clipped to the parent's, grouped by parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = std::numeric_limits<int64_t>::min();
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::vector<size_t> RootIndex(const std::vector<SpanRecord>& spans) {
  constexpr size_t kUnknown = std::numeric_limits<size_t>::max();
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Spans are sorted by id and a parent is always opened before its
  // children, so one forward pass resolves every chain.
  std::vector<size_t> root(spans.size(), kUnknown);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) {
      root[i] = i;
      continue;
    }
    auto it = index.find(spans[i].parent);
    if (it != index.end() && it->second < i) root[i] = root[it->second];
  }
  return root;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tlayer\top\tstart_ns\tend_ns\tbytes\n");
  for (const SpanRecord& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%s\t%u\t%lld\t%lld\t%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), LayerName(s.layer),
                 static_cast<unsigned>(s.op), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
