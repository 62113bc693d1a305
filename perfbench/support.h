// Helpers shared by the end-to-end benchmark and its self-test:
// percentiles, the bit-exact answer checker, an in-memory span recorder and
// the metric set printed as the run's result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/explain_response.h"
#include "core/scored_predicate.h"

namespace perfbench {

/// Linear-interpolation percentile (p in [0, 1]) of an unsorted sample, the
/// same rule as numpy's default and Python's statistics.quantiles
/// (method="inclusive"). 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);
double Median(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);

/// Bit-exact answer comparison. Returns an empty string when `got` carries
/// the same algorithm, ranked predicates (predicate, influence bits,
/// display) and what-if view as `want`; otherwise a one-line description of
/// the first difference. Run statistics (timings, cache flags) are ignored:
/// they legitimately differ between a cold run and a cache hit.
std::string DiffResponses(const scorpion::ExplainResponse& want,
                          const scorpion::ExplainResponse& got);

/// Same check for a layer-by-layer replay: `replay` must hold exactly the
/// response's ranked predicates, in order, with bit-identical influence.
std::string DiffReplay(const std::vector<scorpion::ScoredPredicate>& replay,
                       const scorpion::ExplainResponse& response);

/// Seed for the i-th input of a run: a SplitMix64 step over (run seed, i),
/// so inputs differ between runs and instances but repeat for one seed.
uint64_t DeriveSeed(uint64_t run_seed, uint64_t index);

/// Monotonic seconds since an arbitrary process-wide origin.
double NowSeconds();

/// \brief In-memory span recorder for the traced run.
///
/// Spans are recorded from the benchmark's own code around calls into each
/// engine layer: name, start, end, parent span and request id. A single
/// client thread opens and closes them in stack order, so the parent of a
/// span is the innermost span open when it began. Disabled recorders keep
/// nothing, which is how the untraced units of a traced run are timed.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    uint64_t request = 0;
  };

  /// RAII handle: the span ends when the scope does.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total duration, and total self time (duration minus
  /// the time its direct children cover).
  std::map<std::string, double> TotalSeconds() const;
  std::map<std::string, double> SelfSeconds() const;

  /// Writes every span as a JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// \brief Named metrics with units, printed as the result line's "metrics".
class MetricSet {
 public:
  /// Appends a metric; each name is set once.
  void Set(const std::string& name, double value, const std::string& unit);
  /// False when a value is NaN or infinite (the run then fails).
  bool AllFinite() const;
  /// {"name": {"value": v, "unit": u}, ...} in insertion order.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Peak resident set size of this process image in MiB (VmHWM) since the
/// last ResetPeakRss(), or since exec; negative when VmHWM cannot be read.
double PeakRssMb();

/// Restarts the peak-RSS window at the current RSS (Linux clear_refs);
/// false where the kernel does not support it.
bool ResetPeakRss();

}  // namespace perfbench
