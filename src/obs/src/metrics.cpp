#include "colop/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <set>

#include "colop/obs/json.h"
#include "colop/obs/trace_context.h"
#include "colop/support/error.h"

namespace colop::obs {
namespace {

/// Prometheus label-value escaping: exactly backslash, double-quote and
/// line-feed (text-format spec) — NOT JSON escaping, which would turn
/// control characters into `\uXXXX` sequences scrapers read literally.
std::string prom_escape_label(const std::string& v) {
  std::string out;
  for (char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// HELP text escaping: backslash and line-feed only (quotes stay raw).
std::string prom_escape_help(const std::string& v) {
  std::string out;
  for (char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// Canonical encoding of a label set: sorted by key, Prometheus syntax
/// (`k1="v1",k2="v2"`).  Doubles as the map key AND the exposition text.
std::string encode_labels(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ",";
    out += k + "=\"" + prom_escape_label(v) + "\"";
  }
  return out;
}

/// Prometheus sample value: plain decimal, integers without a fraction.
std::string prom_number(double v) {
  if (v == static_cast<long long>(v) && std::abs(v) < 1e15)
    return std::to_string(static_cast<long long>(v));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `name{labels}` or bare `name` when the label set is empty.
std::string series_name(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

/// `name{labels,extra}` — append one more label to an encoded set.
std::string series_name_plus(const std::string& name, const std::string& labels,
                             const std::string& extra) {
  if (labels.empty()) return name + "{" + extra + "}";
  return name + "{" + labels + "," + extra + "}";
}

/// Decode an encoded label set back to JSON (`"k":"v"` pairs).  Values
/// carry Prometheus escaping (`\\`, `\"`, `\n`) and are unescaped here,
/// then re-quoted as JSON — the two formats escape different characters.
void write_labels_json(std::ostream& os, const std::string& encoded) {
  os << "{";
  bool first = true;
  std::size_t i = 0;
  while (i < encoded.size()) {
    const std::size_t eq = encoded.find('=', i);
    const std::string key = encoded.substr(i, eq - i);
    std::size_t j = eq + 2;  // skip ="
    std::string value;
    while (j < encoded.size() && encoded[j] != '"') {
      if (encoded[j] == '\\' && j + 1 < encoded.size()) {
        const char next = encoded[j + 1];
        value += next == 'n' ? '\n' : next;
        j += 2;
      } else {
        value += encoded[j++];
      }
    }
    if (!first) os << ",";
    first = false;
    os << json::quote(key) << ":" << json::quote(value);
    i = j + 1;
    if (i < encoded.size() && encoded[i] == ',') ++i;
  }
  os << "}";
}

}  // namespace

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  COLOP_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                        bounds_.end(),
                "histogram bucket bounds must be strictly increasing");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
  count_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

std::vector<double> default_seconds_buckets() {
  return {1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10};
}

// --- Registry --------------------------------------------------------------

Registry::Family& Registry::family(const std::string& name, Kind kind,
                                   const std::string& help,
                                   const std::vector<double>& buckets) {
  auto [it, inserted] = families_.try_emplace(name);
  Family& fam = it->second;
  if (inserted) {
    fam.kind = kind;
    fam.help = help;
    fam.buckets = buckets;
  } else {
    COLOP_REQUIRE(fam.kind == kind,
                  "metric '" + name + "' re-registered with a different kind");
    COLOP_REQUIRE(kind != Kind::histogram || fam.buckets == buckets,
                  "histogram '" + name +
                      "' re-registered with different buckets");
  }
  return fam;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const LabelSet& labels) {
  const std::string key = encode_labels(labels);
  const std::lock_guard<std::mutex> lock(mutex_);
  Family& fam = family(name, Kind::counter, help, {});
  auto& slot = fam.counters[key];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const LabelSet& labels) {
  const std::string key = encode_labels(labels);
  const std::lock_guard<std::mutex> lock(mutex_);
  Family& fam = family(name, Kind::gauge, help, {});
  auto& slot = fam.gauges[key];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               const std::vector<double>& upper_bounds,
                               const LabelSet& labels) {
  const std::string key = encode_labels(labels);
  const std::lock_guard<std::mutex> lock(mutex_);
  Family& fam = family(name, Kind::histogram, help, upper_bounds);
  auto& slot = fam.histograms[key];
  if (!slot) slot = std::make_unique<Histogram>(fam.buckets);
  return *slot;
}

double Registry::value(const std::string& name, const LabelSet& labels) const {
  const std::string key = encode_labels(labels);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = families_.find(name);
  if (it == families_.end()) return 0;
  if (const auto c = it->second.counters.find(key);
      c != it->second.counters.end())
    return c->second->value();
  if (const auto g = it->second.gauges.find(key); g != it->second.gauges.end())
    return g->second->value();
  return 0;
}

bool Registry::has(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return families_.count(name) != 0;
}

std::vector<std::string> Registry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const auto& [name, fam] : families_) out.push_back(name);
  return out;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

void Registry::write_prometheus(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty())
      os << "# HELP " << name << " " << prom_escape_help(fam.help) << "\n";
    os << "# TYPE " << name << " "
       << (fam.kind == Kind::counter
               ? "counter"
               : fam.kind == Kind::gauge ? "gauge" : "histogram")
       << "\n";
    for (const auto& [labels, c] : fam.counters)
      os << series_name(name, labels) << " " << prom_number(c->value()) << "\n";
    for (const auto& [labels, g] : fam.gauges)
      os << series_name(name, labels) << " " << prom_number(g->value()) << "\n";
    for (const auto& [labels, h] : fam.histograms) {
      const auto counts = h->bucket_counts();
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < h->upper_bounds().size(); ++i) {
        cum += counts[i];
        os << series_name_plus(name + "_bucket", labels,
                               "le=\"" + prom_number(h->upper_bounds()[i]) +
                                   "\"")
           << " " << cum << "\n";
      }
      cum += counts.back();
      os << series_name_plus(name + "_bucket", labels, "le=\"+Inf\"") << " "
         << cum << "\n";
      os << series_name(name + "_sum", labels) << " " << prom_number(h->sum())
         << "\n";
      os << series_name(name + "_count", labels) << " " << h->count() << "\n";
    }
  }
}

void Registry::write_json(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"kind\":\"colop_metrics\"" << trace_id_json_field()
     << ",\"metrics\":[";
  bool first_fam = true;
  for (const auto& [name, fam] : families_) {
    if (!first_fam) os << ",";
    first_fam = false;
    os << "{\"name\":" << json::quote(name) << ",\"kind\":\""
       << (fam.kind == Kind::counter
               ? "counter"
               : fam.kind == Kind::gauge ? "gauge" : "histogram")
       << "\",\"help\":" << json::quote(fam.help) << ",\"series\":[";
    bool first = true;
    for (const auto& [labels, c] : fam.counters) {
      if (!first) os << ",";
      first = false;
      os << "{\"labels\":";
      write_labels_json(os, labels);
      os << ",\"value\":" << json::number(c->value()) << "}";
    }
    for (const auto& [labels, g] : fam.gauges) {
      if (!first) os << ",";
      first = false;
      os << "{\"labels\":";
      write_labels_json(os, labels);
      os << ",\"value\":" << json::number(g->value()) << "}";
    }
    for (const auto& [labels, h] : fam.histograms) {
      if (!first) os << ",";
      first = false;
      os << "{\"labels\":";
      write_labels_json(os, labels);
      os << ",\"buckets\":[";
      const auto counts = h->bucket_counts();
      for (std::size_t i = 0; i < h->upper_bounds().size(); ++i) {
        if (i != 0) os << ",";
        os << "{\"le\":" << json::number(h->upper_bounds()[i])
           << ",\"count\":" << counts[i] << "}";
      }
      os << "],\"inf_count\":" << counts.back()
         << ",\"sum\":" << json::number(h->sum()) << ",\"count\":" << h->count()
         << "}";
    }
    os << "]}";
  }
  os << "]}\n";
}

// --- prom_lint -------------------------------------------------------------

namespace {

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(s[0])) return false;
  for (char c : s)
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

bool valid_label_name(const std::string& s) {
  return valid_metric_name(s) && s.find(':') == std::string::npos;
}

bool valid_prom_value(const std::string& s) {
  if (s == "+Inf" || s == "-Inf" || s == "Inf" || s == "NaN") return true;
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

/// The family a sample line belongs to: histogram/summary machine suffixes
/// fold into their base family when that base has a declared TYPE.
std::string owning_family(
    const std::string& sample_name,
    const std::map<std::string, std::string>& family_types) {
  if (family_types.count(sample_name) != 0) return sample_name;
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s = suffix;
    if (sample_name.size() > s.size() &&
        sample_name.compare(sample_name.size() - s.size(), s.size(), s) == 0) {
      const std::string base = sample_name.substr(0, sample_name.size() - s.size());
      if (family_types.count(base) != 0) return base;
    }
  }
  return sample_name;
}

}  // namespace

std::vector<std::string> prom_lint(const std::string& exposition) {
  std::vector<std::string> findings;
  std::map<std::string, std::string> family_types;  // name -> type
  std::set<std::string> help_seen, type_seen, closed;
  std::string open_family;  // family whose sample block is in progress
  auto note = [&](int lineno, const std::string& what) {
    findings.push_back("line " + std::to_string(lineno) + ": " + what);
  };

  int lineno = 0;
  std::size_t pos = 0;
  while (pos < exposition.size()) {
    std::size_t eol = exposition.find('\n', pos);
    if (eol == std::string::npos) eol = exposition.size();
    const std::string line = exposition.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name type"; other comments are free.
      const bool is_help = line.rfind("# HELP ", 0) == 0;
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      if (!is_help && !is_type) continue;
      const std::size_t name_start = 7;
      const std::size_t name_end = line.find(' ', name_start);
      const std::string name = line.substr(
          name_start,
          name_end == std::string::npos ? std::string::npos : name_end - name_start);
      if (!valid_metric_name(name)) {
        note(lineno, "invalid metric name '" + name + "'");
        continue;
      }
      if (is_help) {
        if (!help_seen.insert(name).second)
          note(lineno, "duplicate HELP for '" + name + "'");
        if (type_seen.count(name) != 0)
          note(lineno, "HELP for '" + name + "' after its TYPE");
        if (closed.count(name) != 0 || open_family == name)
          note(lineno, "HELP for '" + name + "' after its samples");
      } else {
        if (!type_seen.insert(name).second)
          note(lineno, "duplicate TYPE for '" + name + "'");
        if (closed.count(name) != 0 || open_family == name)
          note(lineno, "TYPE for '" + name + "' after its samples");
        const std::string type =
            name_end == std::string::npos ? "" : line.substr(name_end + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped")
          note(lineno, "unknown TYPE '" + type + "' for '" + name + "'");
        family_types[name] = type;
        if (type == "counter" &&
            !(name.size() > 6 &&
              name.compare(name.size() - 6, 6, "_total") == 0))
          note(lineno, "counter '" + name + "' does not end in _total");
      }
      continue;
    }

    // Sample line: name[{labels}] value [timestamp]
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    const std::string sample_name = line.substr(0, i);
    if (!valid_metric_name(sample_name)) {
      note(lineno, "invalid metric name '" + sample_name + "'");
      continue;
    }
    if (i < line.size() && line[i] == '{') {
      // Walk the label pairs, honoring escaped quotes in values.
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t eq = line.find('=', i);
        if (eq == std::string::npos) {
          note(lineno, "malformed labels in '" + sample_name + "'");
          break;
        }
        const std::string label = line.substr(i, eq - i);
        if (!valid_label_name(label))
          note(lineno, "invalid label name '" + label + "' in '" +
                           sample_name + "'");
        i = eq + 1;
        if (i >= line.size() || line[i] != '"') {
          note(lineno, "unquoted label value in '" + sample_name + "'");
          break;
        }
        ++i;
        while (i < line.size() && line[i] != '"')
          i += line[i] == '\\' ? 2 : 1;
        if (i >= line.size()) {
          note(lineno, "unterminated label value in '" + sample_name + "'");
          break;
        }
        ++i;  // closing quote
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i < line.size() && line[i] == '}') ++i;
    }
    if (i < line.size() && line[i] == ' ') ++i;
    std::size_t value_end = line.find(' ', i);  // optional timestamp follows
    if (value_end == std::string::npos) value_end = line.size();
    const std::string value = line.substr(i, value_end - i);
    if (!valid_prom_value(value))
      note(lineno, "unparseable value '" + value + "' for '" + sample_name +
                       "'");

    const std::string fam = owning_family(sample_name, family_types);
    if (fam != open_family) {
      if (closed.count(fam) != 0)
        note(lineno, "samples of '" + fam + "' are not contiguous");
      if (!open_family.empty()) closed.insert(open_family);
      open_family = fam;
    }
  }
  return findings;
}

// --- MetricsRegistry (measurement documents) -------------------------------

void MetricsRegistry::set(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  scalars_[name] = value;
}

void MetricsRegistry::add(const std::string& name, double delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  scalars_[name] += delta;
}

double MetricsRegistry::get(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = scalars_.find(name);
  return it == scalars_.end() ? 0.0 : it->second;
}

bool MetricsRegistry::has(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return scalars_.count(name) != 0;
}

void MetricsRegistry::set_info(const std::string& name, std::string value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  info_[name] = std::move(value);
}

std::string MetricsRegistry::info(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = info_.find(name);
  return it == info_.end() ? std::string() : it->second;
}

void MetricsRegistry::add_row(
    const std::string& series,
    std::vector<std::pair<std::string, double>> row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  series_[series].push_back(std::move(row));
}

std::map<std::string, double> MetricsRegistry::scalars() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return scalars_;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"schema_version\":" << kSchemaVersion;
  if (!info_.empty()) {
    os << ",\"info\":{";
    bool first = true;
    for (const auto& [name, value] : info_) {
      if (!first) os << ",";
      first = false;
      os << json::quote(name) << ":" << json::quote(value);
    }
    os << "}";
  }
  os << ",\"scalars\":{";
  bool first = true;
  for (const auto& [name, value] : scalars_) {
    if (!first) os << ",";
    first = false;
    os << json::quote(name) << ":" << json::number(value);
  }
  os << "},\"series\":{";
  first = true;
  for (const auto& [name, rows] : series_) {
    if (!first) os << ",";
    first = false;
    os << json::quote(name) << ":[";
    bool first_row = true;
    for (const auto& row : rows) {
      if (!first_row) os << ",";
      first_row = false;
      os << "{";
      bool first_cell = true;
      for (const auto& [k, v] : row) {
        if (!first_cell) os << ",";
        first_cell = false;
        os << json::quote(k) << ":" << json::number(v);
      }
      os << "}";
    }
    os << "]";
  }
  os << "}}\n";
}

}  // namespace colop::obs
