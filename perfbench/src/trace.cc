// Latency statistics, the host-speed reference and the in-memory span
// recorder.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

namespace {

// Nearest-rank percentile of sorted samples.
double Rank(const std::vector<double>& sorted, double pct) {
  const double n = static_cast<double>(sorted.size());
  size_t k = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  if (k == 0) k = 1;
  return sorted[std::min(k, sorted.size()) - 1];
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  Tail tail;
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  tail.value = Median(v);
  for (double pct : {90.0, 99.0, 99.9}) {
    // Samples strictly beyond the nearest-rank position.
    const double beyond =
        static_cast<double>(v.size()) -
        std::ceil(pct / 100.0 * static_cast<double>(v.size()));
    if (beyond < 10.0) break;
    tail.percentile = pct;
    tail.value = Rank(v, pct);
  }
  return tail;
}

double HostClock::SampleMs() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t acc = 0;
  const size_t mask = table_.size() - 1;
  for (int i = 0; i < 300000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const size_t j = x & mask;
    table_[j] += x;
    acc ^= table_[(j * 7) & mask];
    if (acc & 1) {
      acc += x >> 3;
    } else {
      acc -= x >> 5;
    }
  }
  table_[0] ^= acc;  // keeps the loop's result observable
  const Clock::time_point t1 = Clock::now();
  const double ms = MsBetween(t0, t1);
  samples_.push_back({t0 + (t1 - t0) / 2, ms});
  return ms;
}

double HostClock::SlowdownOver(Clock::time_point from,
                               Clock::time_point to) const {
  if (samples_.empty()) return 1.0;
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kWindowMs));
  const auto before = [](const Sample& s, Clock::time_point t) {
    return s.at < t;
  };
  auto lo = std::lower_bound(samples_.begin(), samples_.end(), from - window,
                             before);
  auto hi = std::lower_bound(lo, samples_.end(), to + window, before);
  std::vector<double> near;
  for (auto it = lo; it != hi; ++it) near.push_back(it->ms);
  if (near.empty()) {
    // Nearest sample: the last one before the window or the first after.
    if (lo == samples_.end() ||
        (lo != samples_.begin() && from - (lo - 1)->at < lo->at - to)) {
      --lo;
    }
    near.push_back(lo->ms);
  }
  return Median(near) / kNominalMs;
}

double HostClock::Slowdown() const {
  std::vector<double> all;
  for (const Sample& s : samples_) all.push_back(s.ms);
  return Median(all) / kNominalMs;
}

void Tracer::Begin(const char* name, uint64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = Ns(Clock::now());
  open_.push_back(static_cast<int>(spans_.size()));
  spans_.push_back(s);
}

void Tracer::End() {
  spans_[open_.back()].end_ns = Ns(Clock::now());
  open_.pop_back();
}

void Tracer::Record(const char* name, uint64_t op, Clock::time_point start,
                    Clock::time_point end, const char* tag) {
  Span s;
  s.name = name;
  s.tag = tag;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = Ns(start);
  s.end_ns = Ns(end);
  spans_.push_back(s);
}

std::vector<double> Tracer::DurationsMs(const std::string& name,
                                        const char* tag) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    if (tag != nullptr && std::string(tag) != s.tag) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMsByName() const {
  // Each span's children as [start, end) intervals, merged so that
  // overlapping children are subtracted once.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"span\":\"%s\",\"tag\":\"%s\",\"op\":%llu,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, s.tag, static_cast<unsigned long long>(s.op),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::map<std::string, std::pair<size_t, double>> total;
  for (const Span& s : spans_) {
    auto& t = total[s.name];
    ++t.first;
    t.second += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  for (const auto& [name, self_ms] : SelfMsByName()) {
    std::fprintf(f,
                 "{\"summary\":\"%s\",\"count\":%zu,\"total_ms\":%.6f,"
                 "\"self_ms\":%.6f}\n",
                 name.c_str(), total[name].first, total[name].second,
                 self_ms);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
