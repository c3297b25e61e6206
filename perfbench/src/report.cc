#include "report.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// Nearest-rank percentile of sorted, non-empty `v`.
double sorted_percentile(const std::vector<double>& v, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, v.size());
  return v[i - 1];
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return sorted_percentile(v, p);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.samples = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      s.pct = p;
      s.pct_value = sorted_percentile(v, p);
      break;
    }
  }
  return s;
}

void Report::timing(const std::string& name, const std::string& unit,
                    const std::vector<double>& samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.summary = summarize(samples);
  m.value = m.summary.median;
  m.stat = "median";
  metrics_.push_back(std::move(m));
}

void Report::rate(const std::string& name, const std::string& unit,
                  const std::vector<double>& samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.summary = summarize(samples);
  m.value = percentile(samples, 10);
  m.stat = "p10";
  metrics_.push_back(std::move(m));
}

void Report::count(const std::string& name, const std::string& unit,
                   double value, std::size_t samples) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.value = samples > 0 ? value : 0;
  m.summary.median = m.value;
  m.summary.samples = samples;
  metrics_.push_back(std::move(m));
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::write_json(std::FILE* f) const {
  std::fputc('{', f);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::fprintf(f,
                 "%s%s: {\"value\": %s, \"unit\": %s, \"samples\": %zu, "
                 "\"stat\": \"%s\", \"median\": %s",
                 i ? ", " : "", json_str(m.name).c_str(),
                 json_num(m.value).c_str(), json_str(m.unit).c_str(),
                 m.summary.samples, m.stat,
                 json_num(m.summary.median).c_str());
    if (m.summary.pct > 0)
      std::fprintf(f, ", \"pct\": %s, \"pct_value\": %s",
                   json_num(m.summary.pct).c_str(),
                   json_num(m.summary.pct_value).c_str());
    std::fputc('}', f);
  }
  std::fputc('}', f);
}

}  // namespace perfbench
