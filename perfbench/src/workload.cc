#include "workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <string_view>
#include <thread>

#include "common/random.h"
#include "core/ref_evaluator.h"
#include "core/rule.h"
#include "scengen/publish.h"
#include "xpath/parser.h"

namespace perfbench {

using csxa::Result;
using csxa::Status;

namespace {

constexpr size_t kChunkSize = 256;
const csxa::proxy::PublishOptions kPublishOptions{.chunk_size = kChunkSize};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

std::vector<WorkloadConfig> Catalog() {
  std::vector<WorkloadConfig> all;

  WorkloadConfig iot;
  iot.name = "iot_fleet_read";
  iot.spec = csxa::scengen::IoTFleetSpec();
  iot.sessions = 1;
  iot.zipf_theta = 0.9;
  iot.warm_docs = 64;
  iot.probe_writes = 4000;
  all.push_back(iot);

  WorkloadConfig churn;
  churn.name = "ehealth_churn_durable";
  churn.spec = csxa::scengen::EHealthMobilitySpec();
  churn.durable = true;
  churn.sessions = 2;
  churn.update_fraction = churn.spec.churn.update_fraction;
  churn.publish_fraction = churn.spec.churn.publish_fraction;
  churn.own_query_fraction = 0.2;
  churn.warm_docs = churn.spec.documents;
  churn.min_updates = 200;
  churn.min_publishes = 200;
  all.push_back(churn);
  return all;
}

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> all = Catalog();
  return all;
}

// A delivered view is identified by what determines it: the document
// revision, the policy revision, the subject and the query.
struct ViewKey {
  size_t doc = 0;
  uint64_t content_rev = 0;
  uint64_t rules_rev = 0;
  uint32_t subject = 0;
  uint32_t query = 0;
  bool operator<(const ViewKey& o) const {
    return std::tie(doc, content_rev, rules_rev, subject, query) <
           std::tie(o.doc, o.content_rev, o.rules_rev, o.subject, o.query);
  }
};

// Views are kept as hashes, so the gate's memory does not grow with the
// size of what was delivered.
struct ViewRecord {
  size_t hash = 0;  ///< of the first delivery
  uint64_t deliveries = 0;
  uint64_t differing = 0;  ///< later deliveries unlike the first
};

size_t HashView(const std::string& xml) {
  return std::hash<std::string_view>{}(xml);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadConfig& w : Workloads()) names.push_back(w.name);
  return names;
}

struct Deployment::Session {
  size_t k = 0;
  csxa::Rng rng;
  std::unique_ptr<csxa::proxy::Publisher> publisher;
  /// One terminal per card holder, kept for the whole run: the learned
  /// fetch plans live inside the terminal.
  std::map<std::string, csxa::proxy::Terminal> terminals;
  // The session's own document: the only one it writes.
  size_t own_index = 0;
  std::string own_id;
  std::vector<std::string> own_subjects;
  csxa::crypto::SymmetricKey own_key;
  uint64_t rev = 0, content_rev = 0, rules_rev = 0;

  PhaseResult out;  ///< this session's share of the current phase
  std::map<ViewKey, ViewRecord> views;

  explicit Session(size_t index, uint64_t seed) : k(index), rng(seed) {}
};

Deployment::Deployment(const WorkloadConfig& config, uint64_t seed,
                       Tracer* tracer)
    : config_(config), seed_(seed), tracer_(tracer) {}

Deployment::~Deployment() {
  // Terminals and publishers talk to the stack; the stack's stores hold
  // files in the durable directory.
  sessions_.clear();
  stack_.reset();
  if (!durable_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(durable_dir_, ec);
  }
}

Result<std::unique_ptr<Deployment>> Deployment::Setup(
    const WorkloadConfig& config, uint64_t seed, const std::string& work_dir,
    Tracer* tracer, double* setup_s) {
  const int64_t start = NowNs();
  std::unique_ptr<Deployment> d(new Deployment(config, seed, tracer));
  CSXA_RETURN_IF_ERROR(d->Build(work_dir));
  *setup_s = (MsSince(start) - d->setup_speed_.spent_ms()) * 1e-3;
  return d;
}

Status Deployment::Build(const std::string& work_dir) {
  // The host's speed is sampled about 16 times through each loop.
  auto sample_speed = [this](size_t i, size_t n) {
    if (i % std::max<size_t>(1, n / 16) == 0) setup_speed_.Sample();
  };
  // The fleet is the catalog scenario itself (its own seed): documents,
  // rule revisions, queries and device popularity are the same on every
  // run. The run's seed drives the request stream and the owners' keys.
  gen_ = csxa::scengen::BuildScenario(config_.spec);

  StackOptions sopt;
  sopt.seed = seed_;
  sopt.tracer = tracer_;
  if (config_.durable) {
    static std::atomic<int> counter{0};
    durable_dir_ = work_dir + "/store-" + std::to_string(counter++);
    std::error_code ec;
    std::filesystem::remove_all(durable_dir_, ec);
    std::filesystem::create_directories(durable_dir_, ec);
    if (ec) return Status::IoError("create " + durable_dir_ + ": " + ec.message());
    sopt.durable_dir = durable_dir_;
  }
  CSXA_ASSIGN_OR_RETURN(stack_, Stack::Build(sopt));

  // Fleet publish.
  csxa::proxy::Publisher setup_publisher(stack_->top(), &registry_,
                                         seed_ + 7777);
  for (const csxa::scengen::ScenarioDoc& doc : gen_.docs) {
    sample_speed(fleet_.size(), gen_.docs.size());
    CSXA_ASSIGN_OR_RETURN(
        csxa::scengen::PublishedDoc pub,
        csxa::scengen::PublishGeneratedDoc(&setup_publisher, gen_, doc,
                                           kPublishOptions));
    fleet_.push_back(FleetDoc{pub.doc_id, std::move(pub.subjects)});
  }

  // Popularity: Zipf over ranks, dealt to documents by a shuffle seeded
  // from the scenario.
  const size_t n = fleet_.size();
  by_popularity_.resize(n);
  for (size_t i = 0; i < n; ++i) by_popularity_[i] = i;
  csxa::Rng shuffle(gen_.spec.seed * 7919 + 3);
  for (size_t i = n; i > 1; --i) {
    std::swap(by_popularity_[i - 1], by_popularity_[shuffle.Uniform(i)]);
  }
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += config_.zipf_theta > 0
                 ? 1.0 / std::pow(static_cast<double>(r + 1), config_.zipf_theta)
                 : 1.0;
    popularity_cdf_.push_back(total);
  }

  // Sessions, each with its own document published up front.
  for (size_t k = 0; k < config_.sessions; ++k) {
    auto s = std::make_unique<Session>(k, seed_ * 9176 + k);
    s->publisher = std::make_unique<csxa::proxy::Publisher>(
        stack_->top(), &registry_, seed_ + k);
    s->own_index = gen_.spec.documents + k;
    csxa::scengen::ScenarioDoc doc = gen_.MakeDoc(s->own_index);
    CSXA_ASSIGN_OR_RETURN(
        csxa::scengen::PublishedDoc pub,
        csxa::scengen::PublishGeneratedDoc(s->publisher.get(), gen_, doc,
                                           kPublishOptions));
    s->own_id = pub.doc_id;
    s->own_subjects = std::move(pub.subjects);
    s->own_key = pub.key;
    sessions_.push_back(std::move(s));
  }
  for (auto& s : sessions_) CSXA_RETURN_IF_ERROR(WarmUp(s.get(), sample_speed));
  setup_speed_.Sample();
  return Status::OK();
}

namespace {

// One query as the client issues it: provision the card, run the session.
// Returns the result, or the first failure.
Result<csxa::proxy::QueryResult> IssueQuery(
    Tracer* tracer, std::map<std::string, csxa::proxy::Terminal>* terminals,
    csxa::dsp::Service* top, csxa::pki::KeyRegistry* registry,
    const std::string& doc_id, const std::string& subject,
    const std::string& query) {
  csxa::proxy::Terminal& terminal =
      terminals
          ->try_emplace(subject, subject, csxa::soe::CardProfile::EGate(), top,
                        registry)
          .first->second;
  {
    TraceSpan span(tracer, Layer::kProvision);
    CSXA_RETURN_IF_ERROR(terminal.Provision(doc_id));
  }
  csxa::proxy::QueryOptions qopt;
  qopt.query = query;
  qopt.fetch_policy = csxa::proxy::FetchPolicy::kPlanned;
  TraceSpan span(tracer, Layer::kQuery);
  return terminal.Query(doc_id, qopt);
}

}  // namespace

Status Deployment::WarmUp(Session* s,
                          const std::function<void(size_t, size_t)>& sample_speed) {
  // Fill the cache and learn plans for the hot set, in a fixed order.
  const size_t docs = std::min(config_.warm_docs, fleet_.size());
  for (size_t r = 0; r < docs; ++r) {
    sample_speed(r, docs);
    const FleetDoc& doc = fleet_[by_popularity_[r]];
    for (const std::string& subject : doc.subjects) {
      for (const auto& q : gen_.queries) {
        CSXA_RETURN_IF_ERROR(IssueQuery(nullptr, &s->terminals, stack_->top(),
                                        &registry_, doc.doc_id, subject,
                                        q.second)
                                 .status());
      }
    }
  }
  if (config_.own_query_fraction > 0) {
    for (const std::string& subject : s->own_subjects) {
      for (const auto& q : gen_.queries) {
        CSXA_RETURN_IF_ERROR(IssueQuery(nullptr, &s->terminals, stack_->top(),
                                        &registry_, s->own_id, subject,
                                        q.second)
                                 .status());
      }
    }
  }
  return Status::OK();
}

struct Deployment::Progress {
  std::atomic<uint64_t> updates{0}, publishes{0};
  std::atomic<bool> prefix_done{false};  ///< session 0's modeled prefix
  /// Set by any failed operation: the floors count successes only, so
  /// the phase stops at the budget instead.
  std::atomic<bool> failed{false};
  std::atomic<bool> stop{false};
};

namespace {

void AddCard(CardTotals* t, const csxa::proxy::QueryResult& r) {
  const csxa::soe::SessionStats& c = r.card;
  ++t->queries;
  t->bytes_decrypted += c.bytes_decrypted;
  t->bytes_transferred += c.bytes_transferred;
  t->apdu += c.apdu_exchanges;
  t->events += c.evaluator.events;
  t->chunks_fetched += c.chunks_fetched;
  t->chunks_avoided += c.chunks_avoided;
  t->ram_peak = std::max<uint64_t>(t->ram_peak, c.ram_peak);
  t->crypto_s += c.crypto_seconds;
  t->transfer_s += c.transfer_seconds;
  t->eval_s += c.evaluator_seconds;
  t->round_trip_s += c.round_trip_seconds;
  t->plan_trips += r.plan_trips;
  t->plan_miss_trips += r.plan_miss_trips;
  t->plans_learned += r.plan_learned ? 1 : 0;
  t->dsp_round_trips += r.dsp_round_trips;
}

void AddCardTotals(CardTotals* t, const CardTotals& c) {
  t->queries += c.queries;
  t->bytes_decrypted += c.bytes_decrypted;
  t->bytes_transferred += c.bytes_transferred;
  t->apdu += c.apdu;
  t->events += c.events;
  t->chunks_fetched += c.chunks_fetched;
  t->chunks_avoided += c.chunks_avoided;
  t->ram_peak = std::max(t->ram_peak, c.ram_peak);
  t->crypto_s += c.crypto_s;
  t->transfer_s += c.transfer_s;
  t->eval_s += c.eval_s;
  t->round_trip_s += c.round_trip_s;
  t->plan_trips += c.plan_trips;
  t->plan_miss_trips += c.plan_miss_trips;
  t->plans_learned += c.plans_learned;
  t->dsp_round_trips += c.dsp_round_trips;
}

void RecordView(std::map<ViewKey, ViewRecord>* views, const ViewKey& key,
                const std::string& xml) {
  const size_t hash = HashView(xml);
  ViewRecord& rec = (*views)[key];
  if (rec.deliveries++ == 0) {
    rec.hash = hash;
  } else if (hash != rec.hash) {
    ++rec.differing;
  }
}

}  // namespace

void Deployment::RunQuery(Session* s, size_t doc_index,
                          const std::string& doc_id,
                          const std::vector<std::string>& subjects,
                          uint32_t subject, uint32_t query,
                          uint64_t content_rev, uint64_t rules_rev,
                          bool timed) {
  PhaseResult& out = s->out;
  const int64_t t0 = NowNs();
  Result<csxa::proxy::QueryResult> result =
      IssueQuery(tracer_, &s->terminals, stack_->top(), &registry_, doc_id,
                 subjects[subject], gen_.queries[query].second);
  const double ms = MsSince(t0);
  ++out.attempted;
  if (!result.ok()) {
    ++out.failed;
    progress_->failed.store(true, std::memory_order_relaxed);
    return;
  }
  RecordView(&s->views, ViewKey{doc_index, content_rev, rules_rev, subject, query},
             result.value().xml);
  if (!timed) return;
  ++out.timed_ops;
  out.query.push_back(ms);
  AddCard(&out.card, result.value());
  if (s->k == 0 && out.modeled_prefix_s.size() < kModeledPrefix) {
    out.modeled_prefix_s.push_back(result.value().card.total_seconds);
    if (out.modeled_prefix_s.size() == kModeledPrefix) {
      progress_->prefix_done.store(true, std::memory_order_relaxed);
    }
  }
}

void Deployment::RunUpdate(Session* s, bool timed) {
  PhaseResult& out = s->out;
  const uint64_t rev = s->rev + 1;
  const std::string rules = gen_.RulesRevision(s->own_index, rev);
  const int64_t t0 = NowNs();
  Result<size_t> sealed = [&] {
    TraceSpan span(tracer_, Layer::kUpdate);
    return s->publisher->UpdateRules(s->own_id, s->own_key, rules);
  }();
  const double ms = MsSince(t0);
  ++out.attempted;
  if (timed) ++out.timed_ops;
  if (!sealed.ok()) {
    ++out.failed;
    progress_->failed.store(true, std::memory_order_relaxed);
    return;
  }
  s->rev = s->rules_rev = rev;
  out.update.push_back(ms);
  out.user_bytes += rules.size();
  out.store_bytes += sealed.value() * stack_->replicas();
  progress_->updates.fetch_add(1, std::memory_order_relaxed);
}

void Deployment::RunPublish(Session* s, bool timed) {
  PhaseResult& out = s->out;
  const uint64_t rev = s->rev + 1;
  // The owner has the new revision in hand before publishing: generating
  // it is not part of the publish latency.
  const csxa::xml::DomDocument dom =
      gen_.Materialize(gen_.MakeDoc(s->own_index, rev));
  const std::string rules = gen_.RulesRevision(s->own_index, rev);
  const int64_t t0 = NowNs();
  Result<csxa::proxy::PublishReceipt> receipt = [&] {
    TraceSpan span(tracer_, Layer::kPublish);
    return s->publisher->Publish(s->own_id, dom, rules, kPublishOptions);
  }();
  const double ms = MsSince(t0);
  ++out.attempted;
  if (timed) ++out.timed_ops;
  if (!receipt.ok()) {
    ++out.failed;
    progress_->failed.store(true, std::memory_order_relaxed);
    return;
  }
  const csxa::proxy::PublishReceipt& r = receipt.value();
  s->own_key = r.key;
  s->rev = s->content_rev = s->rules_rev = rev;
  out.publish.push_back(ms);
  out.user_bytes += dom.Serialize().size() + rules.size();
  out.store_bytes += (r.container_bytes + r.sealed_rules_bytes) * stack_->replicas();
  out.container_bytes += r.container_bytes;
  out.plain_bytes += r.plaintext_bytes;
  progress_->publishes.fetch_add(1, std::memory_order_relaxed);
}

void Deployment::TimedLoop(Session* s, int64_t start_ns, int64_t budget_ns,
                           bool floors) {
  Progress& progress = *progress_;
  csxa::Rng& rng = s->rng;
  while (!progress.stop.load(std::memory_order_relaxed)) {
    const double dice = rng.NextDouble();
    if (dice < config_.publish_fraction) {
      RunPublish(s, true);
    } else if (dice < config_.publish_fraction + config_.update_fraction) {
      RunUpdate(s, true);
    } else if (rng.NextDouble() < config_.own_query_fraction) {
      const auto subject = static_cast<uint32_t>(rng.Uniform(s->own_subjects.size()));
      const auto query = static_cast<uint32_t>(rng.Uniform(gen_.queries.size()));
      RunQuery(s, s->own_index, s->own_id, s->own_subjects, subject, query,
               s->content_rev, s->rules_rev, true);
    } else {
      const double u = rng.NextDouble() * popularity_cdf_.back();
      const size_t rank = std::min<size_t>(
          std::upper_bound(popularity_cdf_.begin(), popularity_cdf_.end(), u) -
              popularity_cdf_.begin(),
          by_popularity_.size() - 1);
      const FleetDoc& doc = fleet_[by_popularity_[rank]];
      const auto subject = static_cast<uint32_t>(rng.Uniform(doc.subjects.size()));
      const auto query = static_cast<uint32_t>(rng.Uniform(gen_.queries.size()));
      RunQuery(s, by_popularity_[rank], doc.doc_id, doc.subjects, subject, query,
               0, 0, true);
    }
    if (NowNs() - start_ns < budget_ns) continue;
    if (!floors || progress.failed.load(std::memory_order_relaxed) ||
        (progress.updates.load(std::memory_order_relaxed) >= config_.min_updates &&
        progress.publishes.load(std::memory_order_relaxed) >=
            config_.min_publishes &&
         progress.prefix_done.load(std::memory_order_relaxed))) {
      progress.stop.store(true, std::memory_order_relaxed);
    }
  }
}

void Deployment::WriteProbe(Session* s, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    RunUpdate(s, false);
    RunPublish(s, false);
  }
}

PhaseResult Deployment::Run(double seconds) {
  Progress progress;
  progress_ = &progress;
  for (auto& s : sessions_) s->out = PhaseResult{};
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9 / kSegments);
  double wall_s = 0;
  SpeedLog speed;
  for (size_t seg = 0; seg < kSegments; ++seg) {
    const bool last = seg + 1 == kSegments;
    speed.Sample();
    progress.stop.store(false, std::memory_order_relaxed);
    const int64_t start = NowNs();
    {
      // Session 0 runs on this thread, the others on their own: at most
      // `sessions` client threads plus the dispatcher's workers.
      std::vector<std::thread> threads;
      for (size_t k = 1; k < sessions_.size(); ++k) {
        threads.emplace_back([this, k, start, budget_ns, last] {
          TimedLoop(sessions_[k].get(), start, budget_ns, last);
        });
      }
      TimedLoop(sessions_[0].get(), start, budget_ns, last);
      for (std::thread& t : threads) t.join();
    }
    wall_s += MsSince(start) * 1e-3;
    // The write probe's slice: its writes touch only the session's own
    // document, which the read workloads never query.
    const size_t probe = config_.probe_writes / kSegments +
                         (last ? config_.probe_writes % kSegments : 0);
    WriteProbe(sessions_[0].get(), probe);
  }
  if (config_.probe_writes > 0) {
    // The probe's last revision must deliver correct views too.
    Session* s = sessions_[0].get();
    for (size_t subject = 0; subject < s->own_subjects.size(); ++subject) {
      RunQuery(s, s->own_index, s->own_id, s->own_subjects,
               static_cast<uint32_t>(subject), 0, s->content_rev, s->rules_rev,
               false);
    }
  }
  progress_ = nullptr;

  PhaseResult total;
  total.wall_s = wall_s;
  total.speed = std::move(speed);
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (auto& s : sessions_) {
    const PhaseResult& o = s->out;
    total.timed_ops += o.timed_ops;
    append(&total.query, o.query);
    append(&total.update, o.update);
    append(&total.publish, o.publish);
    total.modeled_prefix_s.insert(total.modeled_prefix_s.end(),
                                  o.modeled_prefix_s.begin(),
                                  o.modeled_prefix_s.end());
    AddCardTotals(&total.card, o.card);
    total.attempted += o.attempted;
    total.failed += o.failed;
    total.user_bytes += o.user_bytes;
    total.store_bytes += o.store_bytes;
    total.container_bytes += o.container_bytes;
    total.plain_bytes += o.plain_bytes;
  }
  return total;
}

uint64_t Deployment::durable_bytes() const {
  return durable_dir_.empty() ? 0 : DirectoryBytes(durable_dir_);
}

GateResult Deployment::Gate() const {
  GateResult gate;
  std::map<std::pair<size_t, uint64_t>, csxa::xml::DomDocument> docs;
  std::map<std::pair<size_t, uint64_t>, csxa::core::RuleSet> rules;
  std::map<size_t, std::vector<std::string>> subjects;
  std::vector<csxa::xpath::PathExpr> queries;
  std::vector<bool> query_ok;
  for (const auto& q : gen_.queries) {
    auto parsed = csxa::xpath::ParsePath(q.second);
    query_ok.push_back(parsed.ok());
    queries.push_back(parsed.ok() ? std::move(parsed).value()
                                  : csxa::xpath::PathExpr{});
  }
  for (const auto& s : sessions_) {
    for (const auto& [key, rec] : s->views) {
      ++gate.distinct_views;
      gate.deliveries += rec.deliveries;
      gate.mismatches += rec.differing;

      auto doc_it = docs.find({key.doc, key.content_rev});
      if (doc_it == docs.end()) {
        doc_it = docs.emplace(std::make_pair(key.doc, key.content_rev),
                              gen_.Materialize(gen_.MakeDoc(key.doc, key.content_rev)))
                     .first;
      }
      auto rules_it = rules.find({key.doc, key.rules_rev});
      if (rules_it == rules.end()) {
        auto parsed = csxa::core::RuleSet::ParseText(
            gen_.RulesRevision(key.doc, key.rules_rev));
        if (!parsed.ok()) {
          gate.mismatches += rec.deliveries;
          continue;
        }
        rules_it = rules.emplace(std::make_pair(key.doc, key.rules_rev),
                                 std::move(parsed).value())
                       .first;
      }
      auto subjects_it = subjects.find(key.doc);
      if (subjects_it == subjects.end()) {
        subjects_it = subjects.emplace(key.doc, gen_.MakeDoc(key.doc).subjects).first;
      }
      const std::vector<std::string>& doc_subjects = subjects_it->second;
      if (key.subject >= doc_subjects.size() || !query_ok[key.query]) {
        gate.mismatches += rec.deliveries;
        continue;
      }
      auto oracle = csxa::core::BuildAuthorizedView(
          doc_it->second, rules_it->second.ForSubject(doc_subjects[key.subject]),
          &queries[key.query]);
      if (!oracle.ok() || HashView(oracle.value().Serialize()) != rec.hash) {
        gate.mismatches += rec.deliveries - rec.differing;
      }
    }
  }
  return gate;
}

}  // namespace perfbench
