// Sample summaries and the JSON result that perfbench/run.py reads.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// A timing is reported as its median plus the highest percentile of the
// ladder below that still has at least ten samples beyond it, with the
// sample count. A count is reported exactly, as one value.
struct Summary {
  double median = 0;
  double pct = 0;        // which percentile (0 when none qualifies)
  double pct_value = 0;  // its value
  std::size_t samples = 0;
};
Summary summarize(std::vector<double> v);
// Nearest-rank percentile `p` (0-100) of unsorted `v`; 0 when empty.
double percentile(std::vector<double> v, double p);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;  // see `stat`
  Summary summary;   // samples == 0 means the layer did not run
  // How `value` is taken from the samples: "median" (timings), "p10"
  // (rates) or "count" (one exact value).
  const char* stat = "count";
};

class Report {
 public:
  void timing(const std::string& name, const std::string& unit,
              const std::vector<double>& samples);
  // A throughput sampled once per episode. Its value is the 10th
  // percentile, the rate nine episodes in ten reach: on a shared host,
  // co-tenants going idle speed some stretches of a run up by as much as
  // 1.5x, which moves the median from run to run but not the slow end.
  // The median stays in the summary.
  void rate(const std::string& name, const std::string& unit,
            const std::vector<double>& samples);
  // A count or ratio measured `samples` times (0: the layer did not run).
  void count(const std::string& name, const std::string& unit, double value,
             std::size_t samples = 1);
  void write_json(std::FILE* f) const;  // {"name": {...}, ...}

 private:
  std::vector<Metric> metrics_;
};

// JSON string literal (the names and messages here are plain ASCII).
std::string json_str(const std::string& s);
// A finite double with all its digits.
std::string json_num(double v);

}  // namespace perfbench
