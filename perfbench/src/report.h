// Sample sets and the metric report. Every metric the benchmark prints goes
// through Report: one human-readable line per metric (name, value, unit,
// sample count) and, at the end, the one-line JSON result the harness
// parses.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// A bag of measurements (milliseconds, microseconds, counts — the caller
// knows the unit).
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  std::size_t size() const { return values_.size(); }

  // Nearest-rank-interpolated percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const {
    if (values_.empty()) {
      return 0;
    }
    Sort();
    double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, values_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values_[lo] + (values_[hi] - values_[lo]) * frac;
  }
  double Median() const { return Percentile(50); }
  double Mean() const { return MeanAtOrBelow(std::numeric_limits<double>::infinity()); }
  // Mean of the samples <= limit; 0 when there are none.
  double MeanAtOrBelow(double limit) const {
    double sum = 0;
    std::size_t count = 0;
    for (double v : values_) {
      if (v <= limit) {
        sum += v;
        ++count;
      }
    }
    return count == 0 ? 0 : sum / static_cast<double>(count);
  }

 private:
  void Sort() const {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// Samples stamped with the time they were taken. Headline figures are taken
// per one-second window of the run and then summarized by their median
// across windows. The program's own work is the same in every window; what
// differs is interference from the shared host, which comes in bursts. The
// median ignores bursts that cover less than half of a run, while a slowdown
// of the program in more than half of its windows moves it.
class TimedSamples {
 public:
  void Add(double at_us, double value) {
    all_.Add(value);
    stamped_.push_back({at_us, value});
  }
  const Samples& all() const { return all_; }
  std::size_t size() const { return all_.size(); }

  // The median over windows of each window's p-th percentile.
  double WindowedPercentile(double p, double window_us) const {
    return AcrossWindows(window_us, [p](const Samples& window) { return window.Percentile(p); });
  }
  // The median over windows of each window's mean of the samples at or
  // below its p90 (what lies above is the tail's business). Unlike a
  // median, the mean moves smoothly with the mix of request kinds, so it
  // cannot jump between the modes of a multi-modal latency distribution.
  double WindowedTrimmedMean(double window_us) const {
    return AcrossWindows(window_us, [](const Samples& window) {
      return window.MeanAtOrBelow(window.Percentile(90));
    });
  }

 private:
  template <typename Statistic>
  double AcrossWindows(double window_us, Statistic statistic) const {
    if (stamped_.empty()) {
      return 0;
    }
    double first = stamped_.front().first;
    for (const auto& [at, value] : stamped_) {
      first = std::min(first, at);
    }
    std::vector<Samples> windows;
    for (const auto& [at, value] : stamped_) {
      std::size_t index = static_cast<std::size_t>((at - first) / window_us);
      if (windows.size() <= index) {
        windows.resize(index + 1);
      }
      windows[index].Add(value);
    }
    // A trailing window holding a sliver of the run would weigh as much as a
    // full one; drop any window with under half the mean window's samples.
    const double mean_size = static_cast<double>(stamped_.size()) / windows.size();
    Samples per_window;
    for (const Samples& window : windows) {
      if (static_cast<double>(window.size()) * 2 >= mean_size) {
        per_window.Add(statistic(window));
      }
    }
    return per_window.Median();
  }

  Samples all_;
  std::vector<std::pair<double, double>> stamped_;
};

// The ordered list of metrics one run reports.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
  };

  void Add(std::string name, double value, std::string unit, std::size_t samples) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }

  // "metric <name> <value> <unit> n=<samples>" per metric.
  void PrintLines(const char* section) const {
    for (const Metric& m : metrics_) {
      std::printf("%s %-28s %.6g %s n=%zu\n", section, m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    }
  }

  // The harness line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string Json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buffer[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buffer, sizeof buffer, "%.17g", m.value);
      out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buffer + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
