#include "common/telemetry.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/metric_names.hpp"
#include "common/metrics.hpp"

namespace xfci::obs {
namespace {

double bits_to_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "counter";
}

/// Sort key so snapshots render identically whatever the registration
/// order: family name, then the rendered label pairs.
std::string series_key(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
std::string prom_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prom_labels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += prom_escape(v);
    out += '"';
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

}  // namespace

const std::vector<double>& histogram_bounds() {
  static const std::vector<double>* const kBounds = [] {
    auto* b = new std::vector<double>();
    b->reserve(kHistogramBounds);
    double bound = 1e-6;
    for (std::size_t i = 0; i < kHistogramBounds; ++i, bound *= 2.0) {
      b->push_back(bound);
    }
    return b;
  }();
  return *kBounds;
}

const SnapshotMetric* Snapshot::find(const std::string& name,
                                     const std::vector<Label>& labels) const {
  for (const SnapshotMetric& m : metrics) {
    if (m.name != name) continue;
    bool ok = true;
    for (const Label& want : labels) {
      bool present = false;
      for (const auto& [k, v] : m.labels) {
        if (k == want.key && v == want.value) {
          present = true;
          break;
        }
      }
      if (!present) {
        ok = false;
        break;
      }
    }
    if (ok) return &m;
  }
  return nullptr;
}

Snapshot merge(const Snapshot& a, const Snapshot& b) {
  Snapshot out = a;
  for (const SnapshotMetric& m : b.metrics) {
    SnapshotMetric* into = nullptr;
    for (SnapshotMetric& have : out.metrics) {
      if (have.name == m.name && have.labels == m.labels) {
        into = &have;
        break;
      }
    }
    if (into == nullptr) {
      out.metrics.push_back(m);
      continue;
    }
    XFCI_REQUIRE(into->kind == m.kind,
                 "telemetry merge: series " + m.name +
                     " has conflicting kinds");
    switch (m.kind) {
      case MetricKind::kCounter:
        into->value += m.value;
        break;
      case MetricKind::kGauge:
        into->gauge = std::max(into->gauge, m.gauge);
        break;
      case MetricKind::kHistogram:
        into->buckets.resize(
            std::max(into->buckets.size(), m.buckets.size()), 0);
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          into->buckets[i] += m.buckets[i];
        }
        into->sum += m.sum;
        into->count += m.count;
        break;
    }
  }
  std::sort(out.metrics.begin(), out.metrics.end(),
            [](const SnapshotMetric& x, const SnapshotMetric& y) {
              return series_key(x.name, x.labels) <
                     series_key(y.name, y.labels);
            });
  return out;
}

std::string telemetry_json(const Snapshot& snap, double wall_unix_seconds) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").str("xfci-telemetry-v1");
  // The one wall-clock-derived field; everything below is deterministic
  // for a deterministic run, so snapshots diff cleanly across runs.
  w.key("wall_unix_seconds").num(wall_unix_seconds);
  w.key("histogram_bounds").begin_array();
  for (double b : histogram_bounds()) w.num(b);
  w.end_array();
  w.key("metrics").begin_array();
  for (const SnapshotMetric& m : snap.metrics) {
    w.begin_object();
    w.key("name").str(m.name);
    w.key("kind").str(kind_name(m.kind));
    w.key("help").str(m.help);
    w.key("labels").begin_object();
    for (const auto& [k, v] : m.labels) w.key(k).str(v);
    w.end_object();
    switch (m.kind) {
      case MetricKind::kCounter:
        w.key("value").uint(m.value);
        break;
      case MetricKind::kGauge:
        w.key("value").num(m.gauge);
        break;
      case MetricKind::kHistogram:
        w.key("buckets").begin_array();
        for (std::uint64_t b : m.buckets) w.uint(b);
        w.end_array();
        w.key("sum").num(m.sum);
        w.key("count").uint(m.count);
        break;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string prometheus_text(const Snapshot& snap) {
  std::string out;
  const std::string* last_family = nullptr;
  for (const SnapshotMetric& m : snap.metrics) {
    if (last_family == nullptr || *last_family != m.name) {
      out += "# HELP " + m.name + " " + m.help + "\n";
      out += "# TYPE " + m.name + " ";
      out += kind_name(m.kind);
      out += '\n';
      last_family = &m.name;
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        out += m.name + prom_labels(m.labels) + " " +
               std::to_string(m.value) + "\n";
        break;
      case MetricKind::kGauge:
        out += m.name + prom_labels(m.labels) + " " + json_number(m.gauge) +
               "\n";
        break;
      case MetricKind::kHistogram: {
        const std::vector<double>& bounds = histogram_bounds();
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          cum += m.buckets[i];
          const std::string le =
              i < bounds.size() ? json_number(bounds[i]) : "+Inf";
          out += m.name + "_bucket" +
                 prom_labels(m.labels, "le=\"" + le + "\"") + " " +
                 std::to_string(cum) + "\n";
        }
        out += m.name + "_sum" + prom_labels(m.labels) + " " +
               json_number(m.sum) + "\n";
        out += m.name + "_count" + prom_labels(m.labels) + " " +
               std::to_string(m.count) + "\n";
        break;
      }
    }
  }
  return out;
}

namespace {
std::atomic<std::uint64_t> g_next_registry_id{1};
}  // namespace

Registry::Registry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)),
      gauges_(new std::atomic<std::uint64_t>[kGaugeCells]) {
  for (std::size_t i = 0; i < kGaugeCells; ++i) {
    gauges_[i].store(0, std::memory_order_relaxed);
  }
}

Registry::~Registry() = default;

Registry::Lane* Registry::register_lane() {
  sync::MutexLock lk(mu_);
  auto lane = std::make_unique<Lane>();
  lane->cells.reset(new std::atomic<std::uint64_t>[kLaneCells]);
  for (std::size_t i = 0; i < kLaneCells; ++i) {
    lane->cells[i].store(0, std::memory_order_relaxed);
  }
  lanes_.push_back(std::move(lane));
  return lanes_.back().get();
}

Registry::Lane* Registry::this_thread_lane() {
  // Keyed by the process-unique registry id, not the address: a test
  // registry can die and a new one reuse its storage, and a stale
  // cached lane pointer must never match the newcomer.
  struct CachedLane {
    std::uint64_t registry_id;
    Lane* lane;
  };
  thread_local std::vector<CachedLane> cache;
  for (const CachedLane& c : cache) {
    if (c.registry_id == id_) return c.lane;
  }
  Lane* lane = register_lane();
  cache.push_back({id_, lane});
  return lane;
}

std::uint32_t Registry::intern(const metric::MetricSpec& spec,
                               MetricKind kind, std::vector<Label>&& labels,
                               std::uint32_t cells) {
  XFCI_REQUIRE(spec.name != nullptr && spec.name[0] != '\0',
               "telemetry: metric spec has no name");
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(labels.size());
  for (Label& l : labels) pairs.emplace_back(l.key, std::move(l.value));
  sync::MutexLock lk(mu_);
  for (const MetricInfo& m : metrics_) {
    if (m.name == spec.name && m.labels == pairs) {
      XFCI_REQUIRE(m.kind == kind, "telemetry: series " + m.name +
                                       " re-registered as a different kind");
      return m.slot;
    }
  }
  MetricInfo info;
  info.name = spec.name;
  info.help = spec.help == nullptr ? "" : spec.help;
  info.kind = kind;
  info.labels = std::move(pairs);
  if (kind == MetricKind::kGauge) {
    XFCI_REQUIRE(next_gauge_ < kGaugeCells,
                 "telemetry: gauge cell capacity exhausted");
    info.slot = next_gauge_;
    next_gauge_ += 1;
  } else {
    XFCI_REQUIRE(next_cell_ + cells <= kLaneCells,
                 "telemetry: lane cell capacity exhausted");
    info.slot = next_cell_;
    next_cell_ += cells;
  }
  metrics_.push_back(std::move(info));
  return metrics_.back().slot;
}

Counter Registry::counter(const metric::MetricSpec& spec,
                          std::vector<Label> labels) {
  XFCI_REQUIRE(labels.size() <= 8, "telemetry: too many labels");
  return Counter(this,
                 intern(spec, MetricKind::kCounter, std::move(labels), 1));
}

Gauge Registry::gauge(const metric::MetricSpec& spec,
                      std::vector<Label> labels) {
  XFCI_REQUIRE(labels.size() <= 8, "telemetry: too many labels");
  return Gauge(this, intern(spec, MetricKind::kGauge, std::move(labels), 1));
}

Histogram Registry::histogram(const metric::MetricSpec& spec,
                              std::vector<Label> labels) {
  XFCI_REQUIRE(labels.size() <= 8, "telemetry: too many labels");
  return Histogram(
      this, intern(spec, MetricKind::kHistogram, std::move(labels),
                   kHistCells));
}

std::size_t Registry::num_metrics() const {
  sync::MutexLock lk(mu_);
  return metrics_.size();
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  sync::MutexLock lk(mu_);
  snap.metrics.reserve(metrics_.size());
  for (const MetricInfo& m : metrics_) {
    SnapshotMetric out;
    out.name = m.name;
    out.help = m.help;
    out.kind = m.kind;
    out.labels = m.labels;
    switch (m.kind) {
      case MetricKind::kCounter: {
        std::uint64_t total = 0;
        for (const auto& lane : lanes_) {
          total += lane->cells[m.slot].load(std::memory_order_relaxed);
        }
        out.value = total;
        break;
      }
      case MetricKind::kGauge:
        out.gauge =
            bits_to_double(gauges_[m.slot].load(std::memory_order_relaxed));
        break;
      case MetricKind::kHistogram: {
        out.buckets.assign(kHistogramBounds + 1, 0);
        for (const auto& lane : lanes_) {
          for (std::size_t b = 0; b <= kHistogramBounds; ++b) {
            out.buckets[b] +=
                lane->cells[m.slot + b].load(std::memory_order_relaxed);
          }
          out.sum += bits_to_double(
              lane->cells[m.slot + kHistogramBounds + 1].load(
                  std::memory_order_relaxed));
        }
        for (std::uint64_t b : out.buckets) out.count += b;
        break;
      }
    }
    snap.metrics.push_back(std::move(out));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const SnapshotMetric& x, const SnapshotMetric& y) {
              return series_key(x.name, x.labels) <
                     series_key(y.name, y.labels);
            });
  return snap;
}

Registry& telemetry() {
  // Leaked on purpose (DESIGN.md §16): worker threads cache lane
  // pointers and may outlive static destruction; a destructed global
  // registry would dangle under them.
  static Registry* const kGlobal = new Registry();
  return *kGlobal;
}

}  // namespace xfci::obs
