// Self-test of the benchmark's own helpers: the answer checker must catch a
// planted mismatch (one perturbed influence, one perturbed what-if value,
// one replay off by one ulp), the percentile helper must agree with known
// samples, and span self time must subtract child spans.
//
//   perfbench_selftest   (exit 0 on success; python3 perfbench/run.py
//                         --selftest builds and runs it)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "api/dataset.h"
#include "support.h"
#include "workload/synth.h"

using namespace scorpion;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-12,
         what + " = " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void TestPercentile() {
  using perfbench::Percentile;
  // Reference values from Python's statistics.quantiles(method="inclusive").
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  ExpectNear(Percentile(ten, 0.5), 5.5, "p50 of 1..10");
  ExpectNear(Percentile(ten, 0.9), 9.1, "p90 of 1..10");
  ExpectNear(Percentile(ten, 0.25), 3.25, "p25 of 1..10");
  ExpectNear(Percentile(ten, 0.0), 1.0, "p0 of 1..10");
  ExpectNear(Percentile(ten, 1.0), 10.0, "p100 of 1..10");
  ExpectNear(Percentile({2.0, 4.0}, 0.5), 3.0, "p50 of {2, 4}");
  ExpectNear(Percentile({7.0}, 0.9), 7.0, "p90 of one sample");
  ExpectNear(Percentile({}, 0.5), 0.0, "p50 of no samples");
  ExpectNear(perfbench::Median({3.0, 1.0, 2.0}), 2.0, "median of 3");
  ExpectNear(perfbench::Mean({1.0, 2.0, 6.0}), 3.0, "mean of 3");
}

/// A real response from a small SYNTH explain, so the checker sees the
/// shapes the benchmark compares.
ExplainResponse RealResponse() {
  SynthOptions options = SynthPreset(2, /*easy=*/true, /*seed=*/7);
  options.tuples_per_group = 100;
  auto data = GenerateSynth(options);
  if (!data.ok()) return {};
  Engine engine;
  auto dataset = engine.Open(data->table, data->query);
  if (!dataset.ok()) return {};
  ExplainRequest request;
  for (const std::string& key : data->outlier_keys) request.FlagTooHigh(key);
  for (const std::string& key : data->holdout_keys) request.Holdout(key);
  request.WithAttributes(data->attributes).WithC(0.5);
  auto response = dataset->Explain(request);
  return response.ok() ? *response : ExplainResponse{};
}

void TestAnswerChecker() {
  const ExplainResponse base = RealResponse();
  Expect(!base.predicates.empty() && !base.what_if.empty(),
         "small SYNTH explain returns predicates and a what-if view");
  if (base.predicates.empty() || base.what_if.empty()) return;
  Expect(perfbench::DiffResponses(base, base).empty(),
         "identical responses match");

  ExplainResponse stats_only = base;
  stats_only.stats.runtime_seconds += 1.0;
  stats_only.stats.cache_result_hit = !stats_only.stats.cache_result_hit;
  Expect(perfbench::DiffResponses(base, stats_only).empty(),
         "run statistics are not part of the answer");

  ExplainResponse planted = base;
  double& influence = planted.predicates.back().influence;
  influence = std::nextafter(influence, INFINITY);
  Expect(!perfbench::DiffResponses(base, planted).empty(),
         "one influence perturbed by one ulp is caught");

  ExplainResponse what_if = base;
  what_if.what_if.front().updated += 1e-9;
  Expect(!perfbench::DiffResponses(base, what_if).empty(),
         "a perturbed what-if value is caught");

  ExplainResponse dropped = base;
  dropped.predicates.pop_back();
  Expect(!perfbench::DiffResponses(base, dropped).empty(),
         "a missing predicate is caught");

  std::vector<ScoredPredicate> replay;
  for (const RankedPredicate& rp : base.predicates) {
    ScoredPredicate sp;
    sp.pred = rp.pred;
    sp.influence = rp.influence;
    replay.push_back(sp);
  }
  Expect(perfbench::DiffReplay(replay, base).empty(),
         "an exact replay matches");
  replay.front().influence = std::nextafter(replay.front().influence, 0.0);
  Expect(!perfbench::DiffReplay(replay, base).empty(),
         "a replay off by one ulp is caught");
}

void TestSpans() {
  perfbench::Tracer tracer;
  {
    perfbench::Tracer::Scope ignored(&tracer, "off", 1);
  }
  Expect(tracer.spans().empty(), "a disabled tracer records nothing");
  tracer.set_enabled(true);
  {
    perfbench::Tracer::Scope parent(&tracer, "parent", 7);
    perfbench::Tracer::Scope child(&tracer, "child", 7);
  }
  Expect(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
             tracer.spans()[1].request == 7,
         "child span records its parent and request id");
  if (tracer.spans().size() != 2) return;
  const auto& parent = tracer.spans()[0];
  const auto& child = tracer.spans()[1];
  const double want =
      (parent.end - parent.start) - (child.end - child.start);
  ExpectNear(tracer.SelfSeconds().at("parent"), want,
             "parent self time excludes the child");
  ExpectNear(tracer.TotalSeconds().at("parent"), parent.end - parent.start,
             "parent total time");
}

}  // namespace

int main() {
  TestPercentile();
  TestAnswerChecker();
  TestSpans();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
