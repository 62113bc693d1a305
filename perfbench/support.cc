#include "support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

using scorpion::ExplainResponse;
using scorpion::ScoredPredicate;

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - std::floor(rank));
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string Describe(const char* what, size_t index, const std::string& want,
                     const std::string& got) {
  char head[96];
  std::snprintf(head, sizeof(head), "%s #%zu differs: ", what, index);
  return head + want + " vs " + got;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string DiffResponses(const ExplainResponse& want,
                          const ExplainResponse& got) {
  if (want.algorithm != got.algorithm) return "algorithm differs";
  if (want.predicates.size() != got.predicates.size()) {
    return "predicate count " + std::to_string(want.predicates.size()) +
           " vs " + std::to_string(got.predicates.size());
  }
  for (size_t i = 0; i < want.predicates.size(); ++i) {
    const auto& a = want.predicates[i];
    const auto& b = got.predicates[i];
    if (!(a.pred == b.pred) || a.display != b.display) {
      return Describe("predicate", i, a.display, b.display);
    }
    if (!SameBits(a.influence, b.influence)) {
      return Describe("influence", i, Num(a.influence), Num(b.influence));
    }
  }
  if (want.what_if.size() != got.what_if.size()) return "what-if size differs";
  for (size_t i = 0; i < want.what_if.size(); ++i) {
    const auto& a = want.what_if[i];
    const auto& b = got.what_if[i];
    if (a.key != b.key || !SameBits(a.original, b.original) ||
        !SameBits(a.updated, b.updated) ||
        a.tuples_removed != b.tuples_removed ||
        a.is_outlier != b.is_outlier || a.is_holdout != b.is_holdout) {
      return Describe("what-if entry", i, a.key, b.key);
    }
  }
  return "";
}

std::string DiffReplay(const std::vector<ScoredPredicate>& replay,
                       const ExplainResponse& response) {
  if (replay.size() != response.predicates.size()) {
    return "replay predicate count " + std::to_string(replay.size()) +
           " vs " + std::to_string(response.predicates.size());
  }
  for (size_t i = 0; i < replay.size(); ++i) {
    const auto& want = response.predicates[i];
    if (!(replay[i].pred == want.pred)) {
      return Describe("replay predicate", i, want.display,
                      replay[i].pred.ToString());
    }
    if (!SameBits(replay[i].influence, want.influence)) {
      return Describe("replay influence", i, Num(want.influence),
                      Num(replay[i].influence));
    }
  }
  return "";
}

uint64_t DeriveSeed(uint64_t run_seed, uint64_t index) {
  uint64_t z = run_seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.request = request;
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  // Start last, so recording costs land outside the span.
  tracer_->spans_[index_].start = NowSeconds();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[index_].end = NowSeconds();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::TotalSeconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.end - s.start;
  return out;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].end - spans_[i].start - child_time[i];
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld, \"request\": %llu}%s\n",
                 i, s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, value, unit});
}

bool MetricSet::AllFinite() const {
  for (const Entry& e : entries_) {
    if (!std::isfinite(e.value)) return false;
  }
  return true;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + Num(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

double PeakRssMb() {
  // VmHWM is this image's own high-water mark. getrusage's ru_maxrss would
  // also count the pre-exec image of the launching process.
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib < 0 ? -1.0 : static_cast<double>(kib) / 1024.0;
}

bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

}  // namespace perfbench
