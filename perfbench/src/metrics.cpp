#include "metrics.hpp"

#include <cmath>
#include <stdexcept>

namespace perfbench {

void Report::set(const std::string& name, double value) {
  for (const MetricSpec& spec : specs_) {
    if (name == spec.name) {
      // A NaN or infinity would make the JSON line invalid; a metric that
      // cannot be computed is a benchmark bug, not a result.
      if (!std::isfinite(value))
        throw std::logic_error("perfbench: metric " + name + " is not finite");
      values_[name] = value;
      return;
    }
  }
  throw std::logic_error("perfbench: metric " + name + " is not declared for this run");
}

std::string Report::missing() const {
  for (const MetricSpec& spec : specs_)
    if (!values_.contains(spec.name)) return spec.name;
  return "";
}

void Report::print_table(std::FILE* out) const {
  for (const MetricSpec& spec : specs_) {
    const auto it = values_.find(spec.name);
    if (it != values_.end())
      std::fprintf(out, "metric %-28s %14.6f %s\n", spec.name, it->second, spec.unit);
  }
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs_) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) continue;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->second);
    if (!first) out += ", ";
    out.append("\"").append(spec.name).append("\": {\"value\": ").append(value);
    out.append(", \"unit\": \"").append(spec.unit).append("\"}");
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
