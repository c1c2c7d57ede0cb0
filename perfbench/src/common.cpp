#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <stdexcept>

#include "bench.hpp"

// ---- counting operator new -------------------------------------------------

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

void set_alloc_counting(bool on) noexcept {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

// ---- statistics ------------------------------------------------------------

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation() { release(); }

void CpuRotation::release() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::advance() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

// ---- oracle ----------------------------------------------------------------

std::size_t Oracle::KeyHash::operator()(const Key& key) const noexcept {
  std::size_t h = 0x9e3779b97f4a7c15ull;
  for (const value::Value& v : key) h = (h ^ v.hash()) * 0x100000001b3ull;
  return h;
}

void Oracle::add(std::uint32_t sub, filter::ConjunctiveFilter exact) {
  // Signature: attributes constrained by equality (first Eq per attribute),
  // sorted so constraint order does not split buckets.
  std::vector<std::pair<std::string, value::Value>> eqs;
  for (const auto& c : exact.constraints()) {
    if (c.op != filter::Op::Eq) continue;
    const bool seen = std::any_of(eqs.begin(), eqs.end(), [&](const auto& e) {
      return e.first == c.name;
    });
    if (!seen) eqs.emplace_back(c.name, c.operand);
  }
  std::sort(eqs.begin(), eqs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> attributes;
  Key key;
  for (auto& [name, operand] : eqs) {
    attributes.push_back(name);
    key.push_back(operand);
  }
  std::size_t group = 0;
  while (group < groups_.size() && groups_[group].attributes != attributes)
    ++group;
  if (group == groups_.size()) groups_.push_back(Group{attributes, {}});
  groups_[group].buckets[key].push_back(sub);
  memo_.clear();

  if (entries_.size() <= sub) entries_.resize(sub + 1);
  Entry& entry = entries_[sub];
  if (entry.live) throw std::logic_error("oracle: subscription added twice");
  entry = Entry{std::move(exact), group, std::move(key), true};
  ++active_;
}

void Oracle::remove(std::uint32_t sub) {
  if (sub >= entries_.size() || !entries_[sub].live) return;
  Entry& entry = entries_[sub];
  auto& bucket = groups_[entry.group].buckets[entry.key];
  std::erase(bucket, sub);
  entry.live = false;
  memo_.clear();
  --active_;
}

const filter::ConjunctiveFilter* Oracle::find(std::uint32_t sub) const {
  if (sub >= entries_.size() || !entries_[sub].live) return nullptr;
  return &entries_[sub].exact;
}

void Oracle::expected(const event::EventImage& image,
                      std::vector<std::uint32_t>& out) const {
  out.clear();
  Key key;
  for (const Group& group : groups_) {
    key.clear();
    bool present = true;
    for (const std::string& name : group.attributes) {
      const value::Value* v = image.find(name);
      if (v == nullptr) {
        present = false;  // an Eq constraint on an absent attribute fails
        break;
      }
      key.push_back(*v);
    }
    if (!present) continue;
    const auto it = group.buckets.find(key);
    if (it == group.buckets.end()) continue;
    for (const std::uint32_t sub : it->second)
      if (entries_[sub].exact.matches(image)) out.push_back(sub);
  }
  std::sort(out.begin(), out.end());
}

const std::vector<std::uint32_t>& Oracle::expected_memo(
    const event::EventImage& image, std::string_view id_attribute) {
  Key key;
  key.reserve(image.attributes().size() + 1);
  key.emplace_back(std::string{image.type_name()});
  for (const auto& attribute : image.attributes()) {
    if (attribute.name == id_attribute) continue;
    key.emplace_back(std::string{attribute.name});
    key.push_back(attribute.value);
  }
  const auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  std::vector<std::uint32_t> out;
  expected(image, out);
  return memo_.emplace(std::move(key), std::move(out)).first->second;
}

Check compare_deliveries(
    std::vector<std::pair<std::uint64_t, std::uint32_t>>& expected,
    std::vector<Delivery>& observed) {
  std::sort(expected.begin(), expected.end());
  std::sort(observed.begin(), observed.end(),
            [](const Delivery& a, const Delivery& b) {
              return a.event != b.event ? a.event < b.event : a.sub < b.sub;
            });
  Check check;
  check.expected = expected.size();
  std::size_t i = 0, j = 0;
  while (i < expected.size() || j < observed.size()) {
    if (j == observed.size()) {
      check.missing += expected.size() - i;
      break;
    }
    if (i == expected.size()) {
      check.unexpected += observed.size() - j;
      break;
    }
    const std::pair<std::uint64_t, std::uint32_t> got{observed[j].event,
                                                      observed[j].sub};
    if (expected[i] == got) {
      ++i;
      ++j;
    } else if (expected[i] < got) {
      ++check.missing;
      ++i;
    } else {
      ++check.unexpected;
      ++j;
    }
  }
  return check;
}

std::string self_check() {
  // Oracle comparison: an exact match, a dropped delivery, a duplicate.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> owed{
      {1, 0}, {1, 2}, {2, 1}, {3, 0}};
  std::vector<Delivery> exact{{3, 0, 0}, {1, 2, 0}, {1, 0, 0}, {2, 1, 0}};
  auto owed_copy = owed;
  const Check clean = compare_deliveries(owed_copy, exact);
  if (clean.missing != 0 || clean.unexpected != 0 || clean.expected != 4)
    return "oracle flags a correct delivery set";

  std::vector<Delivery> dropped{{1, 0, 0}, {1, 2, 0}, {3, 0, 0}};
  owed_copy = owed;
  const Check lost = compare_deliveries(owed_copy, dropped);
  if (lost.missing != 1 || lost.unexpected != 0)
    return "oracle misses an injected lost delivery";

  std::vector<Delivery> doubled{{1, 0, 0}, {1, 2, 0}, {2, 1, 0},
                                {2, 1, 0}, {3, 0, 0}};
  owed_copy = owed;
  const Check dup = compare_deliveries(owed_copy, doubled);
  if (dup.missing != 0 || dup.unexpected != 1)
    return "oracle misses an injected duplicate delivery";

  // A loss hidden behind a duplicate of another pair: counts alone agree.
  std::vector<Delivery> swapped{{1, 0, 0}, {1, 0, 0}, {2, 1, 0}, {3, 0, 0}};
  owed_copy = owed;
  const Check swap = compare_deliveries(owed_copy, swapped);
  if (swap.missing != 1 || swap.unexpected != 1)
    return "oracle misses a loss masked by a duplicate";

  // Percentiles against a hand-computed sample (nearest rank): for the
  // 20 values 1..20, p50 is the 10th value, p90 the 18th, p99 the 20th.
  std::vector<double> sample;
  for (int v = 20; v >= 1; --v) sample.push_back(v);
  std::sort(sample.begin(), sample.end());
  if (percentile(sample, 0.50) != 10.0 || percentile(sample, 0.90) != 18.0 ||
      percentile(sample, 0.99) != 20.0 || percentile(sample, 0.05) != 1.0)
    return "percentile disagrees with the hand-computed sample";
  if (median({4.0, 1.0, 3.0, 2.0}) != 2.5 || median({5.0, 1.0, 3.0}) != 3.0)
    return "median disagrees with the hand-computed sample";
  return {};
}

// ---- spans -----------------------------------------------------------------

const char* span_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::Publish: return "publish";
    case SpanKind::Run: return "run";
    case SpanKind::Drain: return "drain";
    case SpanKind::Post: return "post";
    case SpanKind::Subscribe: return "subscribe";
    case SpanKind::Unsubscribe: return "unsubscribe";
    case SpanKind::Handler: return "handler";
    case SpanKind::LaneStart: return "lane_start";
  }
  return "?";
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 16);
    buffer = owned.get();
    const std::lock_guard lock{mutex_};
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void SpanLog::record(SpanKind kind, std::uint64_t id, std::int64_t start,
                     std::int64_t end) {
  local().spans.push_back(Span{kind, id, start, end});
}

std::vector<SpanLog::Totals> SpanLog::totals() const {
  std::vector<Totals> out(static_cast<std::size_t>(SpanKind::LaneStart) + 1);
  const std::lock_guard lock{mutex_};
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      Totals& t = out[static_cast<std::size_t>(s.kind)];
      ++t.count;
      t.ns += s.end - s.start;
    }
  }
  return out;
}

std::size_t SpanLog::write(const std::string& path) const {
  std::ofstream file{path};
  std::size_t written = 0;
  const std::lock_guard lock{mutex_};
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      file << span_name(s.kind) << ' ' << s.id << ' ' << s.start << ' '
           << s.end << '\n';
      ++written;
    }
  }
  return written;
}

}  // namespace perfbench
