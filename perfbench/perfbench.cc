// End-to-end benchmark: one closed-loop client (it waits for every
// reply, as an analyst does) runs one workload for a fixed time and prints
// its metrics as the last stdout line, in the JSON shape perfbench/run.py
// forwards.
//
//   perfbench --workload dt_synth3d|mc_expense|live_sweep
//             --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 times only public entry points (generators, Engine::Open /
// OpenLive, Dataset::Explain, LiveTable::Append, LiveDataset::Refresh /
// ExplainAsync / Get, ExplainResponse::ToJson / FromJson) and reports the
// end-to-end metrics. --trace 1 alternates the same untraced units with
// traced ones, records spans around every layer call, replays each cold
// explain layer by layer (ExecuteGroupBy, Scorer::Make, DTPartitioner /
// MCPartitioner, Merger) and reports per-layer metrics; the spans are
// written to --spans at exit.
//
// Every answer is checked: repeats of one request must match bit for bit,
// every ranked influence must equal a fresh Scorer's score, traced replays
// must equal the engine's response, and every live round must equal a cold
// Engine::Open + Explain over the round's pinned snapshot. A mismatch
// counts as a failed request and makes the benchmark exit 1.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/dataset.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/dt.h"
#include "core/mc.h"
#include "core/merger.h"
#include "core/scorer.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "query/groupby.h"
#include "service/stats.h"
#include "storage/live_table.h"
#include "support.h"
#include "workload/expense.h"
#include "workload/synth.h"

using namespace scorpion;
using perfbench::Median;
using perfbench::Mean;
using perfbench::NowSeconds;
using perfbench::Percentile;
using perfbench::Tracer;

namespace {

// Load stays within a 4-core box: a scoring pool of 2 threads, plus one
// service worker on live_sweep.
constexpr int kScoringThreads = 2;
constexpr int kServiceWorkers = 1;

// Explain cost varies between generator seeds (~10x on SYNTH, up to 2x on
// the ledger), so a cold run explains a fixed pool of instances, one per
// seed derived from --seed, in whole passes (see RunCold), and
// reports medians. Which instances are measured, and how often each, thus
// does not depend on host speed. An untraced pass takes about 28 s on 4
// vCPUs; a traced run, which also times a traced twin and a layer replay of
// every explain, covers the first half of the pool.

// dt_synth3d: SYNTH Easy 3D.
constexpr int kSynthDims = 3;
constexpr int kSynthTuplesPerGroup = 150;
constexpr double kSynthC = 0.1;
constexpr double kSynthLambda = 0.5;
constexpr uint64_t kSynthPool = 320;

// mc_expense: the Section 8.4 ledger, merger caps scaled from the expense
// figure bench.
constexpr int kExpenseDays = 60;
constexpr int kExpenseRowsPerDay = 100;
constexpr size_t kExpenseAttributes = 5;
constexpr double kExpenseC = 0.5;
constexpr double kExpenseLambda = 0.8;
constexpr size_t kExpenseCandidatesPerStep = 16;
constexpr int kExpenseExpansionsPerSeed = 4;
constexpr uint64_t kExpensePool = 14;

// live_sweep: sensor stream, c-slider sweep after every refresh.
constexpr size_t kLiveSeedRows = 16384;
constexpr size_t kLiveChunkRows = 1024;
constexpr int kLiveRoundsPerEpoch = 8;
constexpr int kLiveSweepPasses = 3;
constexpr double kLiveSweep[] = {1.0, 0.5, 0.2, 0.1};
constexpr double kLiveLambda = 0.5;

// Interference on a shared host comes in bursts of a fraction of a second,
// so set-up samples are spread over the whole run: extra set-ups (timed and
// discarded) follow every mc_expense instance and every live_sweep round,
// after the instance's or round's peak RSS is read.
constexpr int kExpenseExtraSetups = 2;
constexpr int kLiveExtraSetupsPerRound = 1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

/// Summed per-layer counters of the traced replays.
struct LayerCounts {
  double replays = 0;
  double dt_leaves = 0;
  double exact_scores = 0;
  double estimated_scores = 0;
  double merges_accepted = 0;
  double predicate_scores = 0;
  double rows_filtered = 0;
  double rows_skipped = 0;
  double candidate_batches = 0;
  double blocks_shared = 0;
  double mc_scored = 0;
  double mc_pruned = 0;
  double mc_replay_scores = 0;  // scorer scores of MC replays only
};

/// Everything one run accumulates.
struct Run {
  Args args;
  Tracer tracer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t next_request = 1;
  std::vector<double> setup_s;
  std::vector<double> explain_s;
  // Explains served from no session cache: every cold-workload explain,
  // and the first explain after each live refresh.
  std::vector<double> cold_explain_s;
  std::vector<double> fscores;
  std::vector<double> peak_rss_mb;  // one per instance or live round
  // Traced-run extras.
  double untraced_unit_s = 0.0;
  double traced_unit_s = 0.0;
  std::vector<double> response_s;
  std::vector<double> service_overhead_s;
  std::vector<double> json_bytes;
  double rounds = 0;
  double cache_result_hits = 0;
  double cache_partition_hits = 0;
  double session_explains = 0;
  double tail_rows_scanned = 0;
  double sessions_delta_refreshed = 0;
  double generations = 0;
  double setups_traced = 0;
  LayerCounts layers;

  /// Records one checked request; `error` empty means it was correct.
  void Check(const std::string& error, const char* what) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (failed <= 5) std::fprintf(stderr, "MISMATCH %s: %s\n", what,
                                  error.c_str());
  }
};

[[noreturn]] void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "FATAL %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what, result.status());
  return result.MoveValueUnsafe();
}

/// peak_rss_mb is the median of per-unit peaks (one cold instance's set-up
/// and explain, or one live round): the peak of one heavy instance, or
/// allocator drift across the hundreds of units a run goes through, would
/// otherwise set the figure. Before each unit the harness hands freed heap
/// pages back to the kernel and restarts the peak window; memory still held
/// (a leak) stays counted. The window is read right after the timed unit,
/// before the answer checks and extra set-ups allocate.
void BeginPeakWindow() {
  malloc_trim(0);
  if (!perfbench::ResetPeakRss()) {
    std::fprintf(stderr, "FATAL cannot reset the peak RSS window\n");
    std::exit(2);
  }
}

double ReadPeakRssMb() {
  const double mb = perfbench::PeakRssMb();
  if (mb < 0) {
    std::fprintf(stderr, "FATAL cannot read VmHWM\n");
    std::exit(2);
  }
  return mb;
}

EngineOptions BaseEngineOptions() {
  EngineOptions options;
  options.engine.num_threads = kScoringThreads;
  options.num_workers = kServiceWorkers;
  return options;
}

ExplainRequest AnnotatedRequest(const std::vector<std::string>& outliers,
                                const std::vector<std::string>& holdouts,
                                std::vector<std::string> attributes) {
  ExplainRequest request;
  for (const std::string& key : outliers) request.FlagTooHigh(key);
  for (const std::string& key : holdouts) request.Holdout(key);
  request.WithAttributes(std::move(attributes));
  return request;
}

/// Independent answer check: the ranking is descending and every ranked
/// influence equals a fresh Scorer's direct score of the predicate, bit
/// for bit.
std::string RescoreCheck(const Table& table, const QueryResult& result,
                         const ProblemSpec& problem,
                         const ExplainResponse& response) {
  if (response.predicates.empty()) return "empty response";
  auto scorer = Scorer::Make(table, result, problem);
  if (!scorer.ok()) return scorer.status().ToString();
  for (size_t i = 0; i < response.predicates.size(); ++i) {
    const RankedPredicate& rp = response.predicates[i];
    if (i > 0 && rp.influence > response.predicates[i - 1].influence) {
      return "ranking not descending at #" + std::to_string(i);
    }
    auto inf = scorer->Influence(rp.pred);
    if (!inf.ok()) return inf.status().ToString();
    if (std::memcmp(&*inf, &rp.influence, sizeof(double)) != 0) {
      return "rescored influence differs for " + rp.display;
    }
  }
  return "";
}

/// F-score of the best predicate over the outlier input groups.
double BestFScore(const Table& table, const QueryResult& result,
                  const ProblemSpec& problem, const ExplainResponse& response,
                  const RowIdList& truth) {
  RowIdList outlier_union =
      Must(OutlierUnion(result, problem), "outlier union");
  return Must(EvaluatePredicate(table, response.best().pred, outlier_union,
                                truth),
              "EvaluatePredicate")
      .f_score;
}

/// Round-trips a response through the JSON wire format under spans and
/// checks the parsed copy equals the original exactly.
std::string JsonRoundTrip(Run* run, uint64_t request,
                          const ExplainResponse& response) {
  std::string json;
  {
    Tracer::Scope span(&run->tracer, "api.to_json", request);
    json = response.ToJson();
  }
  Result<ExplainResponse> parsed = Status::OK();
  {
    Tracer::Scope span(&run->tracer, "api.from_json", request);
    parsed = ExplainResponse::FromJson(json);
  }
  if (run->tracer.enabled()) {
    run->json_bytes.push_back(static_cast<double>(json.size()));
  }
  if (!parsed.ok()) return parsed.status().ToString();
  if (!(*parsed == response)) return "JSON round trip changed the response";
  return "";
}

/// Layer-by-layer replay of one cold explain from outside the engine, on
/// the same table, query and resolved problem, with the engine's options:
/// the path Scorpion::Run takes for a cold session run (DT partitions get
/// their match caches attached before merging) or for MC.
Result<std::vector<ScoredPredicate>> Replay(Run* run, uint64_t request,
                                            const Table& table,
                                            const GroupByQuery& query,
                                            const ProblemSpec& problem,
                                            Algorithm algorithm,
                                            const ScorpionOptions& options,
                                            ThreadPool* pool) {
  Tracer* tracer = &run->tracer;
  LayerCounts& counts = run->layers;
  Tracer::Scope replay_span(tracer, "replay", request);
  QueryResult result;
  {
    Tracer::Scope span(tracer, "query.groupby", request);
    SCORPION_ASSIGN_OR_RETURN(result, ExecuteGroupBy(table, query));
  }
  Tracer::Scope engine_span(tracer, "core.engine", request);
  Result<Scorer> made = Status::OK();
  {
    Tracer::Scope span(tracer, "core.scorer.make", request);
    made = Scorer::Make(table, result, problem);
  }
  SCORPION_ASSIGN_OR_RETURN(Scorer scorer, std::move(made));
  scorer.set_thread_pool(pool);
  scorer.set_enable_block_pruning(options.enable_block_pruning);
  scorer.set_enable_candidate_batching(options.enable_candidate_batching);

  std::vector<ScoredPredicate> out;
  if (algorithm == Algorithm::kDT) {
    std::vector<ScoredPredicate> partitions;
    {
      Tracer::Scope span(tracer, "core.dt.partition", request);
      DTPartitioner dt(scorer, options.dt);
      SCORPION_ASSIGN_OR_RETURN(partitions, dt.Run());
      counts.dt_leaves += static_cast<double>(dt.stats().leaves);
    }
    {
      Tracer::Scope span(tracer, "core.session.attach", request);
      std::vector<Status> statuses(partitions.size());
      ParallelForOver(pool, 0, partitions.size(), [&](size_t i) {
        auto built = scorer.BuildMatchCache(partitions[i].pred);
        if (built.ok()) {
          partitions[i].matches = built.MoveValueUnsafe();
        } else {
          statuses[i] = built.status();
        }
      });
      for (const Status& st : statuses) SCORPION_RETURN_NOT_OK(st);
    }
    for (ScoredPredicate& sp : partitions) {
      sp.influence = -std::numeric_limits<double>::infinity();
    }
    {
      Tracer::Scope span(tracer, "core.merger.merge", request);
      SCORPION_ASSIGN_OR_RETURN(DomainMap domains,
                                ComputeDomains(table, problem.attributes));
      Merger merger(scorer, std::move(domains), options.merger);
      SCORPION_ASSIGN_OR_RETURN(out, merger.Run(std::move(partitions)));
      counts.exact_scores += static_cast<double>(merger.stats().exact_scores);
      counts.estimated_scores +=
          static_cast<double>(merger.stats().estimated_scores);
      counts.merges_accepted +=
          static_cast<double>(merger.stats().merges_accepted);
    }
  } else {
    Tracer::Scope span(tracer, "core.mc.run", request);
    MCPartitioner mc(scorer, options.mc, options.merger);
    SCORPION_ASSIGN_OR_RETURN(out, mc.Run());
    counts.mc_scored += static_cast<double>(mc.stats().predicates_scored);
    counts.mc_pruned += static_cast<double>(mc.stats().predicates_pruned);
    counts.mc_replay_scores +=
        static_cast<double>(scorer.stats().predicate_scores);
  }
  if (out.size() > options.top_k) out.resize(options.top_k);
  const ScorerStats& stats = scorer.stats();
  counts.replays += 1;
  counts.predicate_scores += static_cast<double>(stats.predicate_scores);
  counts.rows_filtered += static_cast<double>(stats.rows_filtered);
  counts.rows_skipped += static_cast<double>(stats.rows_skipped_by_pruning);
  counts.candidate_batches += static_cast<double>(stats.candidate_batches);
  counts.blocks_shared +=
      static_cast<double>(stats.blocks_shared_across_candidates);
  return out;
}

// --- Cold workloads: dt_synth3d and mc_expense -------------------------------

/// One generated, opened instance of a cold workload.
struct ColdInstance {
  std::unique_ptr<Table> table;  // stable address: the Dataset borrows it
  GroupByQuery query;
  ExplainRequest request;
  RowIdList truth;
  std::unique_ptr<Dataset> dataset;
};

struct ColdSpec {
  EngineOptions engine;
  uint64_t pool = 0;  // instances per pass
  int extra_setups_per_instance = 0;
  /// Generates instance data for a seed (timed as workload.generate).
  std::function<ColdInstance(uint64_t seed)> generate;
};

/// Set-up of instance `index`: generate + Engine::Open, timed as one
/// setup_s sample.
ColdInstance SetUpCold(Run* run, Engine* engine, const ColdSpec& spec,
                       uint64_t index, uint64_t request) {
  const double t0 = NowSeconds();
  ColdInstance inst;
  {
    Tracer::Scope span(&run->tracer, "workload.generate", request);
    inst = spec.generate(perfbench::DeriveSeed(run->args.seed, index));
  }
  {
    Tracer::Scope span(&run->tracer, "api.open", request);
    inst.dataset = std::make_unique<Dataset>(
        Must(engine->Open(*inst.table, inst.query), "Engine::Open"));
  }
  run->setup_s.push_back(NowSeconds() - t0);
  if (run->tracer.enabled()) run->setups_traced += 1;
  return inst;
}

/// One pool instance in one pass: set-up, the timed cold explain (plus, in
/// traced runs, a traced twin and its layer replay), then the answer checks.
/// `first` holds the instance's first cold response from pass 0.
void RunColdInstance(Run* run, Engine* engine, ThreadPool* replay_pool,
                     const ColdSpec& spec, uint64_t pass, uint64_t k,
                     ExplainResponse* first) {
  const bool trace = run->args.trace;
  BeginPeakWindow();
  const uint64_t request = run->next_request++;
  ColdInstance inst = SetUpCold(run, engine, spec, k, request);
  const Dataset& ds = *inst.dataset;
  const ProblemSpec problem = Must(ds.Resolve(inst.request), "resolve");

  // Every response with the error its traced checks found (if any).
  std::vector<std::pair<ExplainResponse, std::string>> responses;
  if (pass == 0 && k == 0) {
    // Untimed warm-up; its answer is this instance's first cold response.
    inst.dataset->ClearCache();
    responses.emplace_back(Must(ds.Explain(inst.request), "warm-up explain"),
                           "");
  }
  // Untraced unit: the public call alone.
  run->tracer.set_enabled(false);
  inst.dataset->ClearCache();
  double t = NowSeconds();
  Result<ExplainResponse> response = ds.Explain(inst.request);
  const double wall = NowSeconds() - t;
  run->peak_rss_mb.push_back(ReadPeakRssMb());
  run->tracer.set_enabled(trace);
  if (response.ok()) {
    run->explain_s.push_back(wall);
    run->cold_explain_s.push_back(wall);
    if (trace) run->untraced_unit_s += wall;
    std::string json_error =
        trace ? "" : JsonRoundTrip(run, request, *response);
    responses.emplace_back(std::move(*response), std::move(json_error));
  } else {
    run->Check(response.status().ToString(), "explain");
  }

  if (trace) {
    // Traced unit: the same call under a span; then, outside the unit,
    // its response-build share, JSON round trip and the layer-by-layer
    // replay.
    inst.dataset->ClearCache();
    t = NowSeconds();
    Result<ExplainResponse> traced = Status::OK();
    {
      Tracer::Scope span(&run->tracer, "api.explain", request);
      traced = ds.Explain(inst.request);
    }
    const double traced_wall = NowSeconds() - t;
    if (traced.ok()) {
      run->traced_unit_s += traced_wall;
      run->response_s.push_back(traced_wall - traced->stats.runtime_seconds);
      std::string error = JsonRoundTrip(run, request, *traced);
      auto replayed = Replay(run, request, ds.table(), inst.query, problem,
                             inst.request.algorithm(),
                             engine->options().engine, replay_pool);
      if (error.empty()) {
        error = replayed.ok() ? perfbench::DiffReplay(*replayed, *traced)
                              : replayed.status().ToString();
      }
      responses.emplace_back(std::move(*traced), std::move(error));
    } else {
      run->Check(traced.status().ToString(), "traced explain");
    }
  }
  // Answer checks, outside every timed region: each response equals the
  // instance's first cold response, which a fresh Scorer re-scores.
  if (pass == 0 && !responses.empty()) *first = responses[0].first;
  for (size_t r = 0; r < responses.size(); ++r) {
    std::string error = responses[r].second;
    if (error.empty()) {
      error = perfbench::DiffResponses(*first, responses[r].first);
    }
    if (error.empty() && pass == 0 && r == 0) {
      error = RescoreCheck(ds.table(), ds.result(), problem, *first);
    }
    run->Check(error, "explain");
  }
  if (pass == 0 && !responses.empty()) {
    run->fscores.push_back(BestFScore(ds.table(), ds.result(), problem,
                                      *first, inst.truth));
  }
  for (int r = 0; r < spec.extra_setups_per_instance; ++r) {
    SetUpCold(run, engine, spec, k, run->next_request++);
  }
}

void RunCold(Run* run, const ColdSpec& spec) {
  Engine engine(spec.engine);
  ThreadPool replay_pool(kScoringThreads);
  run->tracer.set_enabled(run->args.trace);
  // The first cold response of each pool instance; every later response of
  // that instance, in any pass, must equal it.
  const uint64_t pool = run->args.trace ? spec.pool / 2 : spec.pool;
  std::vector<ExplainResponse> first(pool);
  // Whole passes only; the run ends with the pass that brings its length
  // closest to --seconds.
  const double start = NowSeconds();
  for (uint64_t pass = 0;; ++pass) {
    const double pass_start = NowSeconds();
    for (uint64_t k = 0; k < pool; ++k) {
      RunColdInstance(run, &engine, &replay_pool, spec, pass, k, &first[k]);
    }
    const double now = NowSeconds();
    if (now - start + (now - pass_start) / 2 >= run->args.seconds) break;
  }
}

ColdSpec SynthSpec() {
  ColdSpec spec;
  spec.engine = BaseEngineOptions();
  spec.pool = kSynthPool;
  spec.generate = [](uint64_t seed) {
    SynthOptions options = SynthPreset(kSynthDims, /*easy=*/true, seed);
    options.tuples_per_group = kSynthTuplesPerGroup;
    SynthDataset data = Must(GenerateSynth(options), "GenerateSynth");
    ColdInstance inst;
    inst.table = std::make_unique<Table>(std::move(data.table));
    inst.query = data.query;
    inst.request = AnnotatedRequest(data.outlier_keys, data.holdout_keys,
                                    data.attributes);
    inst.request.WithAlgorithm(Algorithm::kDT)
        .WithC(kSynthC)
        .WithLambda(kSynthLambda);
    inst.truth = std::move(data.outer_rows);
    return inst;
  };
  return spec;
}

ColdSpec ExpenseSpec() {
  ColdSpec spec;
  spec.engine = BaseEngineOptions();
  spec.engine.engine.merger.max_candidates_per_step = kExpenseCandidatesPerStep;
  spec.engine.engine.merger.max_expansions_per_seed = kExpenseExpansionsPerSeed;
  spec.pool = kExpensePool;
  spec.extra_setups_per_instance = kExpenseExtraSetups;
  spec.generate = [](uint64_t seed) {
    ExpenseOptions options;
    options.num_days = kExpenseDays;
    options.rows_per_day = kExpenseRowsPerDay;
    options.seed = seed;
    ExpenseDataset data = Must(GenerateExpense(options), "GenerateExpense");
    std::vector<std::string> attributes = data.attributes;
    attributes.resize(kExpenseAttributes);
    ColdInstance inst;
    inst.table = std::make_unique<Table>(std::move(data.table));
    inst.query = data.query;
    inst.request = AnnotatedRequest(data.outlier_keys, data.holdout_keys,
                                    std::move(attributes));
    inst.request.WithAlgorithm(Algorithm::kMC)
        .WithC(kExpenseC)
        .WithLambda(kExpenseLambda);
    inst.truth = std::move(data.ground_truth_rows);
    return inst;
  };
  return spec;
}

// --- live_sweep --------------------------------------------------------------

Schema SensorSchema() {
  return Schema({{"time", DataType::kCategorical},
                 {"sensorid", DataType::kCategorical},
                 {"voltage", DataType::kDouble},
                 {"humidity", DataType::kDouble},
                 {"temp", DataType::kDouble}});
}

GroupByQuery SensorQuery() {
  GroupByQuery q;
  q.aggregate = "AVG";
  q.agg_attr = "temp";
  q.group_by = {"time"};
  return q;
}

/// Seeded sensor stream shaped like the live-ingest bench's: six motes over
/// three hours, each at its own fixed voltage; mote 3 runs hot at low
/// voltage outside 11AM. The seed draws each reading's hour, mote, humidity
/// and temperature noise. `hot_rows` collects the ground truth (row ids of
/// the hot readings).
class SensorStream {
 public:
  explicit SensorStream(uint64_t seed) : rng_(seed) {}

  std::vector<Value> Next() {
    static const char* kHours[] = {"11AM", "12PM", "1PM"};
    const int hour = static_cast<int>(rng_.UniformInt(0, 2));
    const int sensor = static_cast<int>(rng_.UniformInt(1, 6));
    const bool hot = sensor == 3 && hour != 0;
    if (hot) hot_rows.push_back(static_cast<RowId>(row_));
    ++row_;
    return {std::string(kHours[hour]), std::to_string(sensor),
            hot ? 2.3 : 2.6 + 0.02 * sensor,
            rng_.Uniform(0.35, 0.55),
            hot ? rng_.Normal(hour == 1 ? 100.0 : 80.0, 2.0)
                : rng_.Normal(34.0, 1.0)};
  }

  RowIdList hot_rows;

 private:
  Rng rng_;
  size_t row_ = 0;
};

ExplainRequest LiveRequest(double c) {
  return ExplainRequest()
      .FlagTooHigh("12PM")
      .FlagTooHigh("1PM")
      .Holdout("11AM")
      .WithAttributes({"sensorid", "voltage"})
      .WithLambda(kLiveLambda)
      .WithC(c);
}

struct TimedResponse {
  double c = 0.0;
  double latency = 0.0;       // submit -> parsed JSON copy
  double async_wall = 0.0;    // submit -> Get returned
  ExplainResponse response;
  std::string error;          // JSON round-trip failure, if any
};

/// One live epoch's state: the stream, its LiveTable seeded with
/// kLiveSeedRows rows, and the LiveDataset over it with its counter sink.
struct LiveEpoch {
  std::unique_ptr<SensorStream> stream;
  std::unique_ptr<LiveTable> live;
  std::unique_ptr<ServiceStats> sink;
  std::unique_ptr<LiveDataset> dataset;
};

/// Set-up of epoch `index`: seed the LiveTable + Engine::OpenLive, timed as
/// one setup_s sample.
LiveEpoch SetUpLive(Run* run, Engine* engine, uint64_t index,
                    uint64_t request) {
  const double t0 = NowSeconds();
  LiveEpoch epoch;
  epoch.stream = std::make_unique<SensorStream>(
      perfbench::DeriveSeed(run->args.seed, index));
  epoch.live = std::make_unique<LiveTable>(SensorSchema());
  {
    Tracer::Scope span(&run->tracer, "workload.generate", request);
    for (size_t r = 0; r < kLiveSeedRows; ++r) {
      Status st = epoch.live->Append(epoch.stream->Next());
      if (!st.ok()) Fatal("LiveTable::Append", st);
    }
  }
  epoch.sink = std::make_unique<ServiceStats>();
  {
    Tracer::Scope span(&run->tracer, "api.open", request);
    epoch.dataset = std::make_unique<LiveDataset>(Must(
        engine->OpenLive(*epoch.live, SensorQuery(), epoch.sink.get()),
        "Engine::OpenLive"));
  }
  run->setup_s.push_back(NowSeconds() - t0);
  if (run->tracer.enabled()) run->setups_traced += 1;
  return epoch;
}

void RunLive(Run* run) {
  const bool trace = run->args.trace;
  Engine engine(BaseEngineOptions());
  EngineOptions reference_options = BaseEngineOptions();
  reference_options.cache_enabled = false;
  Engine reference_engine(reference_options);
  ThreadPool replay_pool(kScoringThreads);
  const GroupByQuery query = SensorQuery();

  const double start = NowSeconds();
  for (uint64_t epoch = 0;
       epoch == 0 || NowSeconds() - start < run->args.seconds; ++epoch) {
    run->tracer.set_enabled(trace);
    LiveEpoch state = SetUpLive(run, &engine, epoch, run->next_request++);
    SensorStream& stream = *state.stream;
    LiveTable* live = state.live.get();
    ServiceStats& sink = *state.sink;
    LiveDataset* ld = state.dataset.get();
    // Untimed warm-up explain before this epoch's timed rounds.
    {
      auto pending = Must(ld->ExplainAsync(LiveRequest(kLiveSweep[0])),
                          "warm-up submit");
      Must(pending.Get(), "warm-up explain");
    }

    for (int round = 0; round < kLiveRoundsPerEpoch; ++round) {
      // In traced runs rounds alternate untraced/traced, and the order flips
      // every epoch so table growth within an epoch favours neither side.
      const bool traced =
          trace && (round % 2) != static_cast<int>(epoch % 2);
      run->tracer.set_enabled(traced);
      const uint64_t request = run->next_request++;
      // Async runs report cache and delta-refresh outcomes to the engine's
      // service; publishes go to the dataset's sink.
      const ServiceStatsSnapshot service_before = engine.service_stats();
      const uint64_t gens_before = sink.snapshot_generations_published.load();
      std::vector<TimedResponse> responses;
      BeginPeakWindow();
      const double unit_start = NowSeconds();
      {
        Tracer::Scope round_span(&run->tracer, "round", request);
        {
          Tracer::Scope span(&run->tracer, "storage.append", request);
          for (size_t r = 0; r < kLiveChunkRows; ++r) {
            Status st = live->Append(stream.Next());
            if (!st.ok()) Fatal("LiveTable::Append", st);
          }
        }
        {
          Tracer::Scope span(&run->tracer, "storage.refresh", request);
          Must(ld->Refresh(), "LiveDataset::Refresh");
        }
        for (int pass = 0; pass < kLiveSweepPasses; ++pass) {
          for (double c : kLiveSweep) {
            Tracer::Scope span(&run->tracer, "api.explain", request);
            TimedResponse timed;
            timed.c = c;
            const double t = NowSeconds();
            Result<PendingExplanation> pending = Status::OK();
            {
              Tracer::Scope submit(&run->tracer, "service.submit", request);
              pending = ld->ExplainAsync(LiveRequest(c));
            }
            Result<ExplainResponse> response = Status::OK();
            if (pending.ok()) {
              Tracer::Scope get(&run->tracer, "service.get", request);
              response = pending->Get();
            } else {
              response = pending.status();
            }
            timed.async_wall = NowSeconds() - t;
            if (!response.ok()) {
              run->Check(response.status().ToString(), "live explain");
              continue;
            }
            timed.error = JsonRoundTrip(run, request, *response);
            timed.latency = NowSeconds() - t;
            timed.response = std::move(*response);
            responses.push_back(std::move(timed));
          }
        }
      }
      const double unit_wall = NowSeconds() - unit_start;
      run->peak_rss_mb.push_back(ReadPeakRssMb());
      run->tracer.set_enabled(trace);
      if (trace) {
        (traced ? run->traced_unit_s : run->untraced_unit_s) += unit_wall;
      }
      for (const TimedResponse& timed : responses) {
        run->explain_s.push_back(timed.latency);
        if (!timed.response.stats.cache_result_hit &&
            !timed.response.stats.cache_partitions_hit) {
          run->cold_explain_s.push_back(timed.latency);
        }
      }
      for (int r = 0; r < kLiveExtraSetupsPerRound; ++r) {
        SetUpLive(run, &engine, epoch, run->next_request++);
      }

      // Answer check, outside the timed unit: a cold Engine::Open + Explain
      // over this round's pinned generation, one per c.
      std::shared_ptr<const TableSnapshot> snap = ld->snapshot();
      Dataset reference =
          Must(reference_engine.Open(snap->table, query), "reference Open");
      std::map<double, ExplainResponse> expected;
      for (double c : kLiveSweep) {
        expected.emplace(c, Must(reference.Explain(LiveRequest(c)),
                                 "reference explain"));
      }
      // Traced rounds also replay the round's first (cold) request layer by
      // layer; the replay must equal that response.
      std::string replay_error;
      if (traced && !responses.empty()) {
        const ProblemSpec problem =
            Must(reference.Resolve(LiveRequest(responses[0].c)), "resolve");
        auto replayed =
            Replay(run, request, snap->table, query, problem, Algorithm::kDT,
                   engine.options().engine, &replay_pool);
        replay_error = replayed.ok() ? perfbench::DiffReplay(
                                           *replayed, responses[0].response)
                                     : replayed.status().ToString();
      }
      for (size_t k = 0; k < responses.size(); ++k) {
        const TimedResponse& timed = responses[k];
        std::string error = timed.error;
        if (error.empty()) {
          error = perfbench::DiffResponses(expected.at(timed.c),
                                           timed.response);
        }
        if (error.empty() && k == 0) error = replay_error;
        run->Check(error, "live explain");
        if (k < std::size(kLiveSweep)) {
          const ProblemSpec problem =
              Must(reference.Resolve(LiveRequest(timed.c)), "resolve");
          run->fscores.push_back(BestFScore(snap->table, reference.result(),
                                            problem, timed.response,
                                            stream.hot_rows));
        }
      }
      if (!traced) continue;

      // Traced-round extras: cache outcomes and ingest counters of the
      // round, and the response-build share: a synchronous twin of each
      // request is an exact-c hit whose wall minus runtime is the response
      // build (what-if view plus assembly).
      const ServiceStatsSnapshot service_after = engine.service_stats();
      run->rounds += 1;
      run->tail_rows_scanned += static_cast<double>(
          service_after.tail_rows_scanned - service_before.tail_rows_scanned);
      run->sessions_delta_refreshed +=
          static_cast<double>(service_after.sessions_delta_refreshed -
                              service_before.sessions_delta_refreshed);
      run->cache_result_hits += static_cast<double>(
          service_after.cache_result_hits - service_before.cache_result_hits);
      run->cache_partition_hits +=
          static_cast<double>(service_after.cache_partition_hits -
                              service_before.cache_partition_hits);
      run->session_explains += static_cast<double>(
          service_after.completed - service_before.completed);
      run->generations += static_cast<double>(
          sink.snapshot_generations_published.load() - gens_before);
      for (const TimedResponse& timed : responses) {
        const double t = NowSeconds();
        Result<ExplainResponse> twin = ld->Explain(LiveRequest(timed.c));
        const double twin_wall = NowSeconds() - t;
        if (!twin.ok()) {
          run->Check(twin.status().ToString(), "twin explain");
          continue;
        }
        run->Check(perfbench::DiffResponses(timed.response, *twin),
                   "twin explain");
        const double response_build = twin_wall - twin->stats.runtime_seconds;
        run->response_s.push_back(response_build);
        run->service_overhead_s.push_back(
            timed.async_wall - timed.response.stats.runtime_seconds -
            response_build);
      }
    }
  }
}

// --- Reporting ---------------------------------------------------------------

void ReportEndToEnd(const Run& run, perfbench::MetricSet* m) {
  m->Set("setup_s", Median(run.setup_s), "s");
  m->Set("explain_p50_s", Median(run.explain_s), "s");
  m->Set("explain_cold_p50_s", Median(run.cold_explain_s), "s");
  m->Set("f_score", Mean(run.fscores), "ratio");
  m->Set("ok_ratio",
         run.attempted == 0
             ? 0.0
             : static_cast<double>(run.attempted - run.failed) /
                   static_cast<double>(run.attempted),
         "ratio");
  m->Set("peak_rss_mb", Median(run.peak_rss_mb), "MB");
}

void ReportLayers(const Run& run, perfbench::MetricSet* m) {
  const std::map<std::string, double> self = run.tracer.SelfSeconds();
  const std::map<std::string, double> total = run.tracer.TotalSeconds();
  auto get = [](const std::map<std::string, double>& map,
                const char* name) {
    auto it = map.find(name);
    return it == map.end() ? 0.0 : it->second;
  };
  auto per = [](double value, double count) {
    return count > 0 ? value / count : 0.0;
  };
  const LayerCounts& c = run.layers;
  const double engine_s = get(total, "core.engine");

  m->Set("workload.generate_s",
         per(get(self, "workload.generate"), run.setups_traced), "s");
  m->Set("api.open_s", per(get(self, "api.open"), run.setups_traced), "s");
  m->Set("query.groupby_s", per(get(self, "query.groupby"), c.replays), "s");
  m->Set("core.scorer.make_s", per(get(self, "core.scorer.make"), c.replays),
         "s");

  m->Set("core.merger.merge_s",
         per(get(self, "core.merger.merge"), c.replays), "s");
  m->Set("core.merger.share", per(get(self, "core.merger.merge"), engine_s),
         "ratio");
  m->Set("core.merger.exact_scores", per(c.exact_scores, c.replays), "count");
  m->Set("core.merger.estimated_scores", per(c.estimated_scores, c.replays),
         "count");
  m->Set("core.merger.accept_ratio", per(c.merges_accepted, c.exact_scores),
         "ratio");

  m->Set("core.dt.partition_s",
         per(get(self, "core.dt.partition"), c.replays), "s");
  m->Set("core.dt.leaves", per(c.dt_leaves, c.replays), "count");
  m->Set("core.session.attach_s",
         per(get(self, "core.session.attach"), c.replays), "s");
  m->Set("predicate.candidate_batches", per(c.candidate_batches, c.replays),
         "count");
  m->Set("predicate.blocks_shared", per(c.blocks_shared, c.replays), "count");

  m->Set("core.scorer.predicate_scores", per(c.predicate_scores, c.replays),
         "count");
  m->Set("core.scorer.rows_filtered", per(c.rows_filtered, c.replays),
         "rows");
  m->Set("core.scorer.rows_per_score", per(c.rows_filtered, c.predicate_scores),
         "rows");
  m->Set("core.scorer.us_per_score", per(engine_s * 1e6, c.predicate_scores),
         "us");
  m->Set("table.rows_skipped_ratio",
         per(c.rows_skipped, c.rows_skipped + c.rows_filtered), "ratio");

  m->Set("core.mc.run_s", per(get(self, "core.mc.run"), c.replays), "s");
  m->Set("core.mc.predicates_scored", per(c.mc_scored, c.replays), "count");
  m->Set("core.mc.prune_ratio", per(c.mc_pruned, c.mc_scored), "ratio");
  m->Set("core.mc.merge_score_share",
         per(c.mc_replay_scores - c.mc_scored, c.mc_replay_scores), "ratio");

  const double responses = static_cast<double>(run.json_bytes.size());
  m->Set("api.response_s", Mean(run.response_s), "s");
  m->Set("api.to_json_s", per(get(self, "api.to_json"), responses), "s");
  m->Set("api.from_json_s", per(get(self, "api.from_json"), responses), "s");
  m->Set("api.json_bytes", Mean(run.json_bytes), "bytes");
  m->Set("api.explain_p90_s", Percentile(run.explain_s, 0.9), "s");

  m->Set("service.overhead_s", Mean(run.service_overhead_s), "s");
  m->Set("service.cache_result_hits", per(run.cache_result_hits, run.rounds),
         "count");
  m->Set("service.cache_partition_hits",
         per(run.cache_partition_hits, run.rounds), "count");
  m->Set("session.hit_ratio",
         per(run.cache_result_hits + run.cache_partition_hits,
             run.session_explains),
         "ratio");

  m->Set("storage.append_s", per(get(self, "storage.append"), run.rounds),
         "s");
  m->Set("storage.refresh_s", per(get(self, "storage.refresh"), run.rounds),
         "s");
  m->Set("storage.tail_rows_scanned", per(run.tail_rows_scanned, run.rounds),
         "rows");
  m->Set("storage.sessions_delta_refreshed",
         per(run.sessions_delta_refreshed, run.rounds), "count");
  m->Set("storage.generations", per(run.generations, run.rounds), "count");

  m->Set("trace.overhead_ratio", per(run.traced_unit_s, run.untraced_unit_s),
         "ratio");
}

/// The workload's recorded inputs, printed before the result line:
/// generator parameters, thread counts, loop type, request mix and reason.
std::string InputsJson(const Args& args) {
  char buf[1024];
  const char* common =
      "\"seed\": %llu, \"seconds\": %g, \"scoring_threads\": %d, "
      "\"loop\": \"closed, 1 client\"";
  int n = std::snprintf(buf, sizeof(buf), common,
                        static_cast<unsigned long long>(args.seed),
                        args.seconds, kScoringThreads);
  std::string out = "{\"workload\": \"" + args.workload + "\", " +
                    std::string(buf, n) + ", ";
  if (args.workload == "dt_synth3d") {
    std::snprintf(buf, sizeof(buf),
                  "\"generator\": \"GenerateSynth(SynthPreset(%d, easy)), "
                  "10 groups x %d tuples, a pool of %llu instances (one "
                  "per derived seed) explained in whole passes\", "
                  "\"request\": \"DT c=%g lambda=%g what-if on\", "
                  "\"mix\": \"every explain cold (ClearCache first)\", "
                  "\"why\": \"the Merger dominates cold DT explains\"}",
                  kSynthDims, kSynthTuplesPerGroup,
                  static_cast<unsigned long long>(kSynthPool), kSynthC,
                  kSynthLambda);
  } else if (args.workload == "mc_expense") {
    std::snprintf(buf, sizeof(buf),
                  "\"generator\": \"GenerateExpense %d days x %d rows, "
                  "%zu attributes, a pool of %llu instances (one per "
                  "derived seed) explained in whole passes\", "
                  "\"request\": \"MC c=%g lambda=%g, merger caps %zu "
                  "candidates/step, %d expansions/seed\", "
                  "\"mix\": \"every explain cold\", "
                  "\"why\": \"per-predicate overhead sets MC cost\"}",
                  kExpenseDays, kExpenseRowsPerDay, kExpenseAttributes,
                  static_cast<unsigned long long>(kExpensePool), kExpenseC, kExpenseLambda, kExpenseCandidatesPerStep,
                  kExpenseExpansionsPerSeed);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "\"service_workers\": %d, \"generator\": \"sensor "
                  "stream, %zu seed rows, %zu rows appended per round, %d "
                  "rounds per epoch\", \"request\": \"DT AVG(temp) by "
                  "hour, c sweep 1/0.5/0.2/0.1 x%d per round via "
                  "ExplainAsync+Get+JSON\", \"mix\": \"per round 1 cold "
                  "(delta refresh), 3 partition hits, 8 exact-c hits\", "
                  "\"why\": \"writes beside reads: storage, sessions, "
                  "service, wire\"}",
                  kServiceWorkers, kLiveSeedRows, kLiveChunkRows,
                  kLiveRoundsPerEpoch, kLiveSweepPasses);
  }
  return out + buf;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && args->seconds > 0 &&
         (args->workload == "dt_synth3d" || args->workload == "mc_expense" ||
          args->workload == "live_sweep");
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  if (!ParseArgs(argc, argv, &run.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "dt_synth3d|mc_expense|live_sweep --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  std::printf("# inputs %s\n", InputsJson(run.args).c_str());
  if (run.args.workload == "dt_synth3d") {
    RunCold(&run, SynthSpec());
  } else if (run.args.workload == "mc_expense") {
    RunCold(&run, ExpenseSpec());
  } else {
    RunLive(&run);
  }

  perfbench::MetricSet metrics;
  if (run.args.trace) {
    ReportLayers(run, &metrics);
    if (!run.args.spans_path.empty() &&
        !run.tracer.WriteJson(run.args.spans_path)) {
      std::fprintf(stderr, "FATAL cannot write %s\n",
                   run.args.spans_path.c_str());
      return 2;
    }
  } else {
    ReportEndToEnd(run, &metrics);
  }
  if (!metrics.AllFinite()) {
    std::fprintf(stderr, "FATAL non-finite metric\n");
    return 2;
  }
  const bool correct = run.failed == 0 && run.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              metrics.ToJson().c_str());
  return correct ? 0 : 1;
}
