#pragma once
// What one spdag_bench process hands to run.py: raw measurements, not
// statistics. run.py owns every median, quartile and percentile, so the
// statistics have one implementation and one self-test.
//
// The document is one JSON object on one line:
//   checks   oracle verdicts, each {name, ok, detail}
//   attempted / failed   operations tried and operations that failed or
//            were refused (a pass whose oracle fails counts all its items)
//   reps     per-rep scalars, e.g. reps.throughput = items/s of each rep
//   series   per-rep sample arrays in integer nanoseconds, e.g.
//            series.latency_ns[rep] = every request latency of that rep
//   values   single numbers (counts, ratios, gauges)

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace spdag_bench {

// One Chrome trace-event "X" slice, recorded by bench code only.
struct span {
  std::string name;
  int tid;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t id;  // shared by the spans of one request; -1 = none
};

class report {
 public:
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void rep(const std::string& name, double v) { reps_[name].push_back(v); }
  std::vector<std::int64_t>& series(const std::string& name) {
    series_[name].emplace_back();
    return series_[name].back();
  }
  void value(const std::string& name, double v) { values_[name] = v; }
  void add_span(span s) { spans_.push_back(std::move(s)); }

  void print(std::FILE* out) const {
    std::fprintf(out, "{\"attempted\": %llu, \"failed\": %llu, \"checks\": [",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      std::fprintf(out, "%s{\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                   i ? ", " : "", checks_[i].name.c_str(),
                   checks_[i].ok ? "true" : "false", checks_[i].detail.c_str());
    }
    std::fprintf(out, "], \"reps\": {");
    const char* sep = "";
    for (const auto& [name, vs] : reps_) {
      std::fprintf(out, "%s\"%s\": [", sep, name.c_str());
      for (std::size_t i = 0; i < vs.size(); ++i) {
        std::fprintf(out, "%s", i ? ", " : "");
        number(out, vs[i]);
      }
      std::fprintf(out, "]");
      sep = ", ";
    }
    std::fprintf(out, "}, \"series\": {");
    sep = "";
    for (const auto& [name, reps] : series_) {
      std::fprintf(out, "%s\"%s\": [", sep, name.c_str());
      for (std::size_t r = 0; r < reps.size(); ++r) {
        std::fprintf(out, "%s[", r ? ", " : "");
        for (std::size_t i = 0; i < reps[r].size(); ++i) {
          std::fprintf(out, "%s%lld", i ? "," : "",
                       static_cast<long long>(reps[r][i]));
        }
        std::fprintf(out, "]");
      }
      std::fprintf(out, "]");
      sep = ", ";
    }
    std::fprintf(out, "}, \"values\": {");
    sep = "";
    for (const auto& [name, v] : values_) {
      std::fprintf(out, "%s\"%s\": ", sep, name.c_str());
      number(out, v);
      sep = ", ";
    }
    std::fprintf(out, "}}\n");
  }

  // Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev). Times are
  // microseconds from the first span. Returns false on I/O failure.
  bool write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t base = 0;
    for (const span& s : spans_) {
      if (base == 0 || s.start_ns < base) base = s.start_ns;
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"spdag_bench\", \"ph\": "
                   "\"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": "
                   "%.3f, \"args\": {\"id\": %lld}}",
                   i ? ",\n" : "", s.name.c_str(), s.tid,
                   static_cast<double>(s.start_ns - base) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<long long>(s.id));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct check_row {
    std::string name;
    bool ok;
    std::string detail;
  };

  // Full precision; non-finite values (a ratio over an empty window) are
  // written as 0 so the document stays valid JSON.
  static void number(std::FILE* out, double v) {
    std::fprintf(out, "%.17g", std::isfinite(v) ? v : 0.0);
  }

  std::vector<check_row> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::vector<double>> reps_;
  std::map<std::string, std::vector<std::vector<std::int64_t>>> series_;
  std::map<std::string, double> values_;
  std::vector<span> spans_;
};

}  // namespace spdag_bench
