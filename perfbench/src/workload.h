#ifndef CSXA_PERFBENCH_WORKLOAD_H_
#define CSXA_PERFBENCH_WORKLOAD_H_

/// \file workload.h
/// \brief Seeded workloads, the closed-loop client sessions that drive
/// them, and the correctness gate that checks every delivered view.
///
/// A run sets a deployment up (scenario build, stack build, fleet
/// publish, warm-up), drives it for a timed phase, and — on the read
/// workloads — follows with a fixed-count write probe so update and
/// publish latencies exist on every workload. All inputs come from
/// scengen and the seed; single-session op streams are byte-for-byte
/// reproducible.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pki/registry.h"
#include "proxy/publisher.h"
#include "proxy/terminal.h"
#include "scengen/spec.h"
#include "speed.h"
#include "stack.h"
#include "trace.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  csxa::scengen::ScenarioSpec spec;
  bool durable = false;
  /// Closed-loop client sessions, one thread each.
  size_t sessions = 1;
  /// Zipf skew of document popularity (0 = uniform).
  double zipf_theta = 0;
  /// Timed-phase mix; the rest are queries.
  double update_fraction = 0;
  double publish_fraction = 0;
  /// Share of queries a session sends to its own (written) document.
  double own_query_fraction = 0;
  /// Warm-up sweeps the hottest `warm_docs` documents × subjects × queries.
  size_t warm_docs = 0;
  /// Read workloads: updates and publishes (each) of the write probe,
  /// spread over the phase's segments.
  size_t probe_writes = 0;
  /// Floors of the timed phase, so each tail has enough samples; queries
  /// have kModeledPrefix as theirs.
  size_t min_updates = 0;
  size_t min_publishes = 0;
};

/// card_modeled_mean_ms averages session 0's first this-many timed
/// queries, so it covers the same operations on every run of a seed.
constexpr size_t kModeledPrefix = 2000;

/// The workloads, by name; null when unknown.
const WorkloadConfig* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Per-query card and planner accounting, summed over a phase.
struct CardTotals {
  uint64_t queries = 0;
  uint64_t bytes_decrypted = 0;
  uint64_t bytes_transferred = 0;
  uint64_t apdu = 0;
  uint64_t events = 0;
  uint64_t chunks_fetched = 0;
  uint64_t chunks_avoided = 0;
  uint64_t ram_peak = 0;  ///< max over queries
  double crypto_s = 0;
  double transfer_s = 0;
  double eval_s = 0;
  double round_trip_s = 0;
  uint64_t plan_trips = 0;
  uint64_t plan_miss_trips = 0;
  uint64_t plans_learned = 0;
  uint64_t dsp_round_trips = 0;
};

/// What one phase (timed segments plus write probes) measured.
struct PhaseResult {
  double wall_s = 0;  ///< time in timed segments (write probes excluded)
  uint64_t timed_ops = 0;
  /// Latency samples, milliseconds.
  std::vector<double> query, update, publish;
  /// Session 0's first kModeledPrefix card costs, seconds.
  std::vector<double> modeled_prefix_s;
  CardTotals card;
  /// Reference kernel timings taken before each segment (see speed.h).
  SpeedLog speed;
  uint64_t attempted = 0;  ///< timed ops + probe writes
  uint64_t failed = 0;     ///< non-OK operations
  uint64_t user_bytes = 0;   ///< plaintext XML + rule text written
  uint64_t store_bytes = 0;  ///< bytes the stores took in for them
  uint64_t container_bytes = 0;  ///< publishes: sealed container bytes
  uint64_t plain_bytes = 0;      ///< publishes: encoded plaintext bytes
};

/// Outcome of the correctness gate.
struct GateResult {
  uint64_t distinct_views = 0;
  uint64_t deliveries = 0;
  uint64_t mismatches = 0;  ///< deliveries that differ from the oracle
};

/// Timed segments per phase; the write probe runs in slices between them,
/// so its samples are spread over the whole phase.
constexpr size_t kSegments = 100;

class Deployment {
 public:
  /// Builds and warms a deployment; `setup_s` receives the wall time of
  /// the whole set-up, less the reference kernel timings taken through it.
  static csxa::Result<std::unique_ptr<Deployment>> Setup(
      const WorkloadConfig& config, uint64_t seed, const std::string& work_dir,
      Tracer* tracer, double* setup_s);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Timed closed-loop phase of at least `seconds`, cut into kSegments
  /// segments; on the read workloads each segment is followed by a slice
  /// of the write probe.
  PhaseResult Run(double seconds);
  /// Compares every distinct delivered view with the DOM oracle.
  GateResult Gate() const;

  Stack& stack() { return *stack_; }
  /// Reference kernel timings taken through the set-up.
  const SpeedLog& setup_speed() const { return setup_speed_; }
  uint64_t durable_bytes() const;

 private:
  struct Session;
  struct Progress;
  struct FleetDoc {
    std::string doc_id;
    std::vector<std::string> subjects;
  };

  Deployment(const WorkloadConfig& config, uint64_t seed, Tracer* tracer);
  csxa::Status Build(const std::string& work_dir);
  /// `sample_speed(i, n)` is called before the i-th of n warm-up documents.
  csxa::Status WarmUp(Session* s,
                      const std::function<void(size_t, size_t)>& sample_speed);
  /// Closed loop until the budget (and, with `floors`, every floor) is met.
  void TimedLoop(Session* s, int64_t start_ns, int64_t budget_ns, bool floors);
  /// `count` updates and `count` publishes of the session's own document.
  void WriteProbe(Session* s, size_t count);
  void RunQuery(Session* s, size_t doc_index, const std::string& doc_id,
                const std::vector<std::string>& subjects, uint32_t subject,
                uint32_t query, uint64_t content_rev, uint64_t rules_rev,
                bool timed);
  void RunUpdate(Session* s, bool timed);
  void RunPublish(Session* s, bool timed);

  const WorkloadConfig& config_;
  const uint64_t seed_;
  Tracer* tracer_;
  std::string durable_dir_;  ///< removed on destruction
  csxa::scengen::GeneratedScenario gen_;
  std::vector<FleetDoc> fleet_;
  std::vector<size_t> by_popularity_;  ///< doc index, hottest first
  std::vector<double> popularity_cdf_;
  csxa::pki::KeyRegistry registry_;
  std::unique_ptr<Stack> stack_;
  std::vector<std::unique_ptr<Session>> sessions_;
  SpeedLog setup_speed_;
  Progress* progress_ = nullptr;  ///< set while a phase runs
};

}  // namespace perfbench

#endif  // CSXA_PERFBENCH_WORKLOAD_H_
