#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace robust_sampling {
namespace obs {

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

namespace internal {

namespace {
size_t AssignStripe() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}
}  // namespace

size_t ThreadStripe() {
  thread_local const size_t stripe = AssignStripe();
  return stripe;
}

}  // namespace internal

namespace {
std::atomic<bool> g_runtime_enabled{true};
}  // namespace

void SetRuntimeEnabled(bool enabled) {
  g_runtime_enabled.store(enabled, std::memory_order_relaxed);
}

bool RuntimeEnabled() {
  return g_runtime_enabled.load(std::memory_order_relaxed);
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  return (uint64_t{1} << i) - 1;
}

namespace {

enum class MetricType { kCounter, kGauge, kHistogram };

struct Entry {
  std::string name;
  MetricLabel label;
  std::string help;
  MetricType type;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

/// Label-qualified registry key; doubles as the stable sort order of every
/// export (snapshot determinism).
std::string FullName(const std::string& name, const MetricLabel& label) {
  if (label.empty()) return name;
  return name + "{" + label.key + "=\"" + label.value + "\"}";
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

// Prometheus exposition-format escaping: label values escape backslash,
// double-quote, and line-feed; HELP text escapes backslash and line-feed.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string EscapeHelpText(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

struct MetricRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, Entry> entries;  // key: FullName

  Entry& GetOrCreate(const std::string& name, const std::string& help,
                     const MetricLabel& label, MetricType type) {
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = entries.try_emplace(FullName(name, label));
    Entry& entry = it->second;
    if (inserted) {
      entry.name = name;
      entry.label = label;
      entry.help = help;
      entry.type = type;
      switch (type) {
        case MetricType::kCounter:
          entry.counter = std::make_unique<Counter>();
          break;
        case MetricType::kGauge:
          entry.gauge = std::make_unique<Gauge>();
          break;
        case MetricType::kHistogram:
          entry.histogram = std::make_unique<Histogram>();
          break;
      }
    }
    return entry;
  }
};

MetricRegistry::Impl* MetricRegistry::impl() {
  Impl* existing = impl_.load(std::memory_order_acquire);
  if (existing != nullptr) return existing;
  Impl* fresh = new Impl();
  if (impl_.compare_exchange_strong(existing, fresh,
                                    std::memory_order_acq_rel)) {
    return fresh;
  }
  delete fresh;
  return existing;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& help,
                                    const MetricLabel& label) {
  return impl()->GetOrCreate(name, help, label, MetricType::kCounter)
      .counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const std::string& help,
                                const MetricLabel& label) {
  return impl()->GetOrCreate(name, help, label, MetricType::kGauge)
      .gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::string& help,
                                        const MetricLabel& label) {
  return impl()->GetOrCreate(name, help, label, MetricType::kHistogram)
      .histogram.get();
}

std::string MetricRegistry::ToPrometheusText() const {
  std::string out;
  Impl* impl = const_cast<MetricRegistry*>(this)->impl();
  std::lock_guard<std::mutex> lock(impl->mu);
  // One # HELP/# TYPE block per base name (entries is sorted by FullName,
  // so all labeled instances of a base name are contiguous).
  std::string last_base;
  for (const auto& [key, entry] : impl->entries) {
    if (entry.name != last_base) {
      last_base = entry.name;
      if (!entry.help.empty()) {
        out += "# HELP " + entry.name + " " + EscapeHelpText(entry.help) +
               "\n";
      }
      out += "# TYPE " + entry.name + " " + TypeName(entry.type) + "\n";
    }
    const std::string label_pair =
        entry.label.empty()
            ? ""
            : entry.label.key + "=\"" + EscapeLabelValue(entry.label.value) +
                  "\"";
    auto series = [&](const std::string& suffix, const std::string& extra,
                      uint64_t value) {
      out += entry.name + suffix;
      if (!label_pair.empty() || !extra.empty()) {
        out += "{" + label_pair;
        if (!label_pair.empty() && !extra.empty()) out += ",";
        out += extra + "}";
      }
      out += " " + std::to_string(value) + "\n";
    };
    switch (entry.type) {
      case MetricType::kCounter:
        series("", "", entry.counter->Value());
        break;
      case MetricType::kGauge:
        series("", "", static_cast<uint64_t>(entry.gauge->Value()));
        break;
      case MetricType::kHistogram: {
        const Histogram::Aggregate agg = entry.histogram->Read();
        uint64_t cumulative = 0;
        for (size_t b = 0; b < kHistogramBuckets; ++b) {
          cumulative += agg.buckets[b];
          const std::string le =
              b == kHistogramBuckets - 1
                  ? "+Inf"
                  : std::to_string(Histogram::BucketUpperBound(b));
          series("_bucket", "le=\"" + le + "\"", cumulative);
        }
        series("_sum", "", agg.sum);
        series("_count", "", agg.count);
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> MetricRegistry::Names() const {
  std::vector<std::string> names;
  Impl* impl = const_cast<MetricRegistry*>(this)->impl();
  std::lock_guard<std::mutex> lock(impl->mu);
  names.reserve(impl->entries.size());
  for (const auto& [key, entry] : impl->entries) names.push_back(key);
  return names;
}

}  // namespace obs
}  // namespace robust_sampling
