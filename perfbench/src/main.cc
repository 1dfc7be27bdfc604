// Wall-clock benchmark of the serving stack: one seeded workload per run,
// end-to-end metrics with tracing off (--trace 0) or per-layer metrics
// from a traced run (--trace 1). The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   csxa_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--spans <file>]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "speed.h"
#include "stack.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;
/// Tail percentile of every latency kind: the highest with at least ten
/// samples beyond it at the smallest floor of a phase (200 samples).
constexpr double kTail = 0.95;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] - '0';
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty();
}

/// Nearest-rank percentile; `beyond` receives the samples above it.
double Percentile(std::vector<double> v, double q, size_t* beyond = nullptr) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  if (beyond != nullptr) *beyond = v.size() - rank;
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Current resident set size, from /proc/self/statm.
double RssMb() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) *
                      static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20)
                : 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  void Note(const std::string& line) { notes_.push_back(line); }
  const std::vector<Metric>& metrics() const { return metrics_; }

  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
    for (const Metric& m : metrics_) {
      std::printf("%-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double value = std::isfinite(m.value) ? m.value : 0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Latency, throughput and cost metrics a user sees, from one phase.
/// Times are stated at the reference host speed (see speed.h): the wall
/// time is scaled by kReferenceKernelMs over the reference kernel's mean
/// time during the phase. The wall-clock figures are printed as notes.
void EndToEnd(const PhaseResult& r, uint64_t errors, double store_bytes,
              Report* report) {
  const double scale = r.speed.scale();
  struct Kind {
    const char* name;
    const std::vector<double>* ms;
  };
  for (const Kind& k : {Kind{"query", &r.query}, Kind{"update", &r.update},
                        Kind{"publish", &r.publish}}) {
    const std::vector<double>& ms = *k.ms;
    size_t beyond = 0;
    const double mean = Mean(ms);
    const double tail = Percentile(ms, kTail, &beyond);
    report->Add(std::string(k.name) + "_mean_ms", mean * scale, "ms");
    report->Add(std::string(k.name) + "_p95_ms", tail * scale, "ms");
    char note[200];
    std::snprintf(note, sizeof(note),
                  "%s: %zu samples, %zu beyond p95; wall clock: mean %.4f ms, "
                  "p50 %.4f ms, p95 %.4f ms, p99 %.4f ms",
                  k.name, ms.size(), beyond, mean, Median(ms), tail,
                  Percentile(ms, 0.99));
    report->Note(note);
  }
  const double ops_per_s = Ratio(static_cast<double>(r.timed_ops), r.wall_s);
  report->Add("ops_per_s", Ratio(ops_per_s, scale), "1/s");
  char note[200];
  std::snprintf(note, sizeof(note),
                "ops: %llu in %.3f s of timed segments, %.1f/s wall clock; "
                "reference kernel %.4f ms over %zu timings, scale %.4f",
                static_cast<unsigned long long>(r.timed_ops), r.wall_s, ops_per_s,
                r.speed.mean_ms(), r.speed.samples(), scale);
  report->Note(note);
  double modeled = 0;
  for (double s : r.modeled_prefix_s) modeled += s;
  report->Add("card_modeled_mean_ms",
              Ratio(modeled, static_cast<double>(r.modeled_prefix_s.size())) * 1e3,
              "ms");
  report->Add("success_ratio",
              1.0 - Ratio(static_cast<double>(errors),
                          static_cast<double>(r.attempted)),
              "ratio");
  report->Add("store_bytes_per_user_byte",
              Ratio(store_bytes, static_cast<double>(r.user_bytes)), "ratio");
}

struct LayerAgg {
  uint64_t count = 0;
  int64_t dur_ns = 0;
  int64_t self_ns = 0;
  uint64_t bytes = 0;
  uint64_t write_count = 0;
};

/// Per-layer metrics of a traced phase.
void PerLayer(const PhaseResult& r, const std::vector<SpanRecord>& spans,
              const StackCounters& before, const StackCounters& after,
              Report* report) {
  const std::vector<int64_t> self = SelfTimes(spans);
  const std::vector<size_t> root = RootIndex(spans);
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  LayerAgg agg[kLayerCount];
  uint64_t query_trips = 0;         // retry spans opened by Terminal::Query
  uint64_t replica_write_calls = 0;  // fault spans under replicate writes
  uint64_t read_bytes_served = 0;    // store spans answering reads
  // Self time of each layer within query, update and publish trees.
  std::map<std::string, std::map<std::string, int64_t>> breakdown;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    LayerAgg& a = agg[static_cast<size_t>(s.layer)];
    ++a.count;
    a.dur_ns += s.end_ns - s.start_ns;
    a.self_ns += self[i];
    a.bytes += s.bytes;
    if (IsWriteOp(s.op)) ++a.write_count;
    if (s.layer == Layer::kStore && !IsWriteOp(s.op)) read_bytes_served += s.bytes;
    auto parent = index.find(s.parent);
    if (parent != index.end()) {
      const SpanRecord& p = spans[parent->second];
      if (s.layer == Layer::kRetry && p.layer == Layer::kQuery) ++query_trips;
      if (s.layer == Layer::kFault && p.layer == Layer::kReplicate &&
          IsWriteOp(p.op)) {
        ++replica_write_calls;
      }
    }
    if (root[i] >= spans.size()) continue;
    const Layer root_layer = spans[root[i]].layer;
    const char* tree = root_layer == Layer::kPublish  ? "publish"
                       : root_layer == Layer::kUpdate ? "update"
                                                      : "query";
    std::string layer = LayerName(s.layer);
    if (s.layer == Layer::kQuery) layer = "card";
    if (s.layer == Layer::kProvision) layer = "pki";
    if (s.layer == Layer::kPublish || s.layer == Layer::kUpdate) layer = "publisher";
    if (layer.rfind("env_", 0) == 0) layer = "env";
    breakdown[tree][layer] += self[i];
  }
  auto L = [&](Layer layer) -> const LayerAgg& {
    return agg[static_cast<size_t>(layer)];
  };
  auto self_us_per_call = [&](Layer layer) {
    return Ratio(static_cast<double>(L(layer).self_ns) * 1e-3,
                 static_cast<double>(L(layer).count));
  };

  const double queries = static_cast<double>(L(Layer::kQuery).count);
  const double updates = static_cast<double>(L(Layer::kUpdate).count);
  const double publishes = static_cast<double>(L(Layer::kPublish).count);
  const double writes = updates + publishes;
  const double ops = queries + writes;
  const CardTotals& c = r.card;
  const double cq = static_cast<double>(c.queries);

  report->Add("card.self_ms_per_query",
              Ratio(static_cast<double>(L(Layer::kQuery).self_ns) * 1e-6, queries),
              "ms");
  report->Add("card.bytes_decrypted_per_query",
              Ratio(static_cast<double>(c.bytes_decrypted), cq), "bytes");
  report->Add("card.bytes_transferred_per_query",
              Ratio(static_cast<double>(c.bytes_transferred), cq), "bytes");
  report->Add("card.apdu_per_query", Ratio(static_cast<double>(c.apdu), cq),
              "count");
  report->Add("card.events_per_query", Ratio(static_cast<double>(c.events), cq),
              "count");
  report->Add("card.chunk_skip_ratio",
              Ratio(static_cast<double>(c.chunks_avoided),
                    static_cast<double>(c.chunks_fetched + c.chunks_avoided)),
              "ratio");
  report->Add("card.ram_peak_bytes", static_cast<double>(c.ram_peak), "bytes");
  report->Add("card.modeled_crypto_ms", Ratio(c.crypto_s * 1e3, cq), "ms");
  report->Add("card.modeled_transfer_ms", Ratio(c.transfer_s * 1e3, cq), "ms");
  report->Add("card.modeled_eval_ms", Ratio(c.eval_s * 1e3, cq), "ms");
  report->Add("card.modeled_round_trip_ms", Ratio(c.round_trip_s * 1e3, cq), "ms");

  report->Add("pki.provision_us_per_query",
              Ratio(static_cast<double>(L(Layer::kProvision).dur_ns) * 1e-3, queries),
              "us");

  report->Add("plan.trips_per_query", Ratio(static_cast<double>(c.plan_trips), cq),
              "count");
  report->Add("plan.miss_trips_per_query",
              Ratio(static_cast<double>(c.plan_miss_trips), cq), "count");
  report->Add("plan.learned_per_query",
              Ratio(static_cast<double>(c.plans_learned), cq), "count");
  report->Add("dsp.round_trips_per_query",
              Ratio(static_cast<double>(query_trips), queries), "count");

  report->Add("publisher.publish_self_ms",
              Ratio(static_cast<double>(L(Layer::kPublish).self_ns) * 1e-6, publishes),
              "ms");
  report->Add("publisher.update_self_ms",
              Ratio(static_cast<double>(L(Layer::kUpdate).self_ns) * 1e-6, updates),
              "ms");
  report->Add("publisher.container_bytes_per_plain_byte",
              Ratio(static_cast<double>(r.container_bytes),
                    static_cast<double>(r.plain_bytes)),
              "ratio");

  report->Add("retry.self_us_per_call", self_us_per_call(Layer::kRetry), "us");
  report->Add("retry.retries", static_cast<double>(after.retries - before.retries),
              "count");
  report->Add("retry.exhausted",
              static_cast<double>(after.retry_exhausted - before.retry_exhausted),
              "count");

  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
  report->Add("cache.self_us_per_call", self_us_per_call(Layer::kCache), "us");
  report->Add("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Add("cache.invalidations",
              static_cast<double>(after.cache_invalidations -
                                  before.cache_invalidations),
              "count");
  report->Add("cache.fanout_invalidations",
              static_cast<double>(after.fanout_invalidations -
                                  before.fanout_invalidations),
              "count");

  report->Add("dispatch.self_us_per_call", self_us_per_call(Layer::kDispatch), "us");
  report->Add("dispatch.calls_per_op",
              Ratio(static_cast<double>(L(Layer::kDispatch).count), ops), "count");

  report->Add("replicate.self_us_per_call", self_us_per_call(Layer::kReplicate),
              "us");
  report->Add("replicate.backend_calls_per_write",
              Ratio(static_cast<double>(replica_write_calls),
                    static_cast<double>(L(Layer::kReplicate).write_count)),
              "count");
  report->Add("dissem.notifications_per_write",
              Ratio(static_cast<double>(after.notifications_delivered -
                                        before.notifications_delivered),
                    writes),
              "count");
  report->Add("fault.self_us_per_call", self_us_per_call(Layer::kFault), "us");

  report->Add("shard.self_us_per_call", self_us_per_call(Layer::kShard), "us");
  report->Add("shard.requests_per_op",
              Ratio(static_cast<double>(L(Layer::kShard).count), ops), "count");
  double shard_total = 0, shard_max = 0;
  for (size_t i = 0; i < after.shard_requests.size(); ++i) {
    const double n =
        static_cast<double>(after.shard_requests[i] - before.shard_requests[i]);
    shard_total += n;
    shard_max = std::max(shard_max, n);
  }
  report->Add("shard.imbalance",
              Ratio(shard_max * static_cast<double>(after.shard_requests.size()),
                    shard_total),
              "ratio");

  report->Add("store.self_us_per_call", self_us_per_call(Layer::kStore), "us");
  report->Add("store.busy_ms_per_op",
              Ratio(static_cast<double>(L(Layer::kStore).dur_ns) * 1e-6, ops), "ms");
  report->Add("store.requests_per_op",
              Ratio(static_cast<double>(L(Layer::kStore).count), ops), "count");
  report->Add("store.bytes_served_per_query",
              Ratio(static_cast<double>(read_bytes_served), queries), "bytes");

  const double commits = static_cast<double>(L(Layer::kStore).write_count);
  report->Add("env.syncs_per_commit",
              Ratio(static_cast<double>(L(Layer::kEnvSync).count), commits), "count");
  report->Add("env.sync_ms_per_commit",
              Ratio(static_cast<double>(L(Layer::kEnvSync).dur_ns) * 1e-6, commits),
              "ms");
  report->Add("env.appended_bytes_per_commit",
              Ratio(static_cast<double>(L(Layer::kEnvAppend).bytes), commits),
              "bytes");
  report->Add("env.read_bytes_per_query",
              Ratio(static_cast<double>(L(Layer::kEnvRead).bytes), queries), "bytes");

  // Accounting: the layers' self times of each tree, per operation, and
  // their sum against the client-measured latency of the same operations.
  struct Tree {
    const char* name;
    double count;
    const std::vector<double>* latency;
    std::vector<const char*> layers;
  };
  const std::vector<const char*> stack_layers = {
      "retry", "cache", "dispatch", "replicate", "fault", "shard", "store", "env"};
  std::vector<const char*> query_layers = {"card", "pki"};
  std::vector<const char*> write_layers = {"publisher"};
  query_layers.insert(query_layers.end(), stack_layers.begin(), stack_layers.end());
  write_layers.insert(write_layers.end(), stack_layers.begin(), stack_layers.end());
  for (const Tree& t : {Tree{"query", queries, &r.query, query_layers},
                        Tree{"update", updates, &r.update, write_layers},
                        Tree{"publish", publishes, &r.publish, write_layers}}) {
    int64_t total_ns = 0;
    for (const char* layer : t.layers) {
      const int64_t ns = breakdown[t.name][layer];
      total_ns += ns;
      report->Add(std::string("breakdown.") + t.name + "." + layer + "_us",
                  Ratio(static_cast<double>(ns) * 1e-3, t.count), "us");
    }
    report->Add(std::string("account.") + t.name + "_self_sum_ms",
                Ratio(static_cast<double>(total_ns) * 1e-6, t.count), "ms");
    report->Add(std::string("account.") + t.name + "_coverage",
                Ratio(static_cast<double>(total_ns) * 1e-6 / t.count, Mean(*t.latency)),
                "ratio");
  }
  report->Add("trace.spans_per_op", Ratio(static_cast<double>(spans.size()), ops),
              "count");
}

struct PhaseOutcome {
  PhaseResult result;
  GateResult gate;
  StackCounters counters;
  double store_bytes = 0;
  bool ok = true;
};

/// Runs one timed phase on a set-up deployment and checks its outputs.
PhaseOutcome RunPhase(Deployment* d, double seconds, Tracer* tracer,
                      StackCounters* before) {
  PhaseOutcome o;
  const uint64_t disk_before = d->durable_bytes();
  if (before != nullptr) *before = d->stack().counters();
  if (tracer != nullptr) tracer->Start();
  o.result = d->Run(seconds);
  if (tracer != nullptr) tracer->Stop();
  o.counters = d->stack().counters();
  const uint64_t disk_after = d->durable_bytes();
  o.store_bytes = disk_after > 0 ? static_cast<double>(disk_after - disk_before)
                                 : static_cast<double>(o.result.store_bytes);
  o.gate = d->Gate();
  std::fprintf(stderr,
               "perfbench: %llu ops in %.3f s, %llu failed; gate: %llu distinct "
               "views over %llu deliveries, %llu mismatched; stale serves %llu, "
               "faults injected %llu\n",
               static_cast<unsigned long long>(o.result.attempted), o.result.wall_s,
               static_cast<unsigned long long>(o.result.failed),
               static_cast<unsigned long long>(o.gate.distinct_views),
               static_cast<unsigned long long>(o.gate.deliveries),
               static_cast<unsigned long long>(o.gate.mismatches),
               static_cast<unsigned long long>(o.counters.stale_reads_served),
               static_cast<unsigned long long>(o.counters.faults_injected));
  o.ok = o.result.failed == 0 && o.gate.mismatches == 0 &&
         o.counters.stale_reads_served == 0 && o.counters.faults_injected == 0;
  return o;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: csxa_perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> --work-dir <dir> [--spans <file>]\n");
    return 2;
  }
  const WorkloadConfig* config = FindWorkload(args.workload);
  if (config == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "unknown workload '%s'; known:%s\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }

  Report report;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  auto setup = [&](Tracer* tracer, double* setup_s) {
    auto d = Deployment::Setup(*config, args.seed, args.work_dir, tracer, setup_s);
    if (!d.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   d.status().ToString().c_str());
    }
    return d.ok() ? std::move(d).value() : nullptr;
  };
  auto account = [&](const PhaseOutcome& o) {
    correct = correct && o.ok;
    attempted += o.result.attempted;
    failed += o.result.failed + o.gate.mismatches;
  };

  if (args.trace == 0) {
    // Set-up times at the reference speed, as the timed phase's.
    std::vector<double> setup_times;
    std::string note = "set-ups, wall clock s (scale):";
    std::unique_ptr<Deployment> d;
    for (int i = 0; i < kSetupRepeats; ++i) {
      d.reset();  // one deployment alive at a time
      double setup_s = 0;
      d = setup(nullptr, &setup_s);
      if (d == nullptr) return 1;
      const double scale = d->setup_speed().scale();
      setup_times.push_back(setup_s * scale);
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %.4f (%.3f)", setup_s, scale);
      note += buf;
    }
    // Peak memory through set-up: the timed phase is excluded because the
    // replication op log grows with every write, so a faster program
    // would read as a bigger one.
    const double peak_rss_mb = PeakRssMb();
    const PhaseOutcome o = RunPhase(d.get(), args.seconds, nullptr, nullptr);
    d.reset();
    account(o);
    EndToEnd(o.result, o.result.failed + o.gate.mismatches, o.store_bytes, &report);
    report.Note(note);
    report.Add("setup_s", Median(setup_times), "s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // Untraced and traced halves on fresh deployments: the difference of
    // their end-to-end numbers is the tracing overhead.
    double setup_s = 0;
    std::unique_ptr<Deployment> d = setup(nullptr, &setup_s);
    if (d == nullptr) return 1;
    // Memory growth is taken from the untraced half: span buffers would
    // swamp it in the traced one.
    const double rss_before = RssMb();
    const PhaseOutcome plain = RunPhase(d.get(), args.seconds / 2, nullptr, nullptr);
    const double rss_growth_mb = RssMb() - rss_before;
    d.reset();
    account(plain);

    Tracer tracer;
    d = setup(&tracer, &setup_s);
    if (d == nullptr) return 1;
    StackCounters before;
    const PhaseOutcome traced = RunPhase(d.get(), args.seconds / 2, &tracer, &before);
    d.reset();
    account(traced);
    const std::vector<SpanRecord> spans = tracer.Drain();
    if (!args.spans_out.empty() && !WriteSpans(args.spans_out, spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    }
    PerLayer(traced.result, spans, before, traced.counters, &report);
    report.Add("mem.rss_growth_kb_per_write",
               Ratio(rss_growth_mb * 1024,
                     static_cast<double>(plain.result.update.size() +
                                         plain.result.publish.size())),
               "KiB");

    Report untraced_e2e, traced_e2e;
    EndToEnd(plain.result, 0, plain.store_bytes, &untraced_e2e);
    EndToEnd(traced.result, 0, traced.store_bytes, &traced_e2e);
    for (size_t i = 0; i < untraced_e2e.metrics().size(); ++i) {
      const Metric& u = untraced_e2e.metrics()[i];
      if (u.unit != "ms" && u.unit != "1/s") continue;
      if (u.name == "card_modeled_mean_ms") continue;
      report.Add("trace.overhead." + u.name, traced_e2e.metrics()[i].value - u.value,
                 u.unit);
    }
  }
  report.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
