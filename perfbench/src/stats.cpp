#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <unordered_map>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, unsigned permille) {
  const std::size_t rank = (static_cast<std::size_t>(permille) * n + 999) / 1000;
  return std::max<std::size_t>(rank, 1);
}

std::size_t samples_above(std::size_t n, unsigned permille) {
  return n == 0 ? 0 : n - nearest_rank(n, permille);
}

std::size_t samples_needed(unsigned permille, std::size_t k) {
  std::size_t n = k;
  while (samples_above(n, permille) < k) ++n;
  return n;
}

double quantile(std::vector<double> v, unsigned permille) {
  if (v.empty()) return 0.0;
  const std::size_t rank = nearest_rank(v.size(), permille);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

PowerFit fit_power_law(const std::vector<double>& x,
                       const std::vector<double>& y) {
  std::vector<std::pair<double, double>> pts;
  for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
    if (x[i] > 0 && y[i] > 0) pts.emplace_back(std::log(x[i]), std::log(y[i]));
  }
  PowerFit fit;
  fit.points = pts.size();
  if (pts.size() < 3) return fit;
  double mx = 0, my = 0;
  for (const auto& [lx, ly] : pts) {
    mx += lx;
    my += ly;
  }
  mx /= static_cast<double>(pts.size());
  my /= static_cast<double>(pts.size());
  double sxx = 0, sxy = 0;
  for (const auto& [lx, ly] : pts) {
    sxx += (lx - mx) * (lx - mx);
    sxy += (lx - mx) * (ly - my);
  }
  if (sxx <= 1e-12) return fit;  // a single distinct x: no slope to fit
  fit.exponent = sxy / sxx;
  fit.ok = true;
  return fit;
}

std::int64_t clock_resolution_ns() {
  std::int64_t best = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t a = now_ns();
    std::int64_t b = now_ns();
    while (b == a) b = now_ns();
    if (best == 0 || b - a < best) best = b - a;
  }
  return best;
}

Calibrator::Calibrator() : next_(std::size_t{1} << 20) {  // 4 MiB
  // One random cycle through every entry, so the walk never short-cuts.
  std::vector<std::uint32_t> order(next_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::mt19937_64 rng(12345);
  std::shuffle(order.begin(), order.end(), rng);
  for (std::size_t i = 0; i < order.size(); ++i) {
    next_[order[i]] = order[(i + 1) % order.size()];
  }
}

double Calibrator::run() {
  const std::int64_t t0 = now_ns();
  std::uint32_t x = 0;
  for (int i = 0; i < 45000; ++i) x = next_[x];
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t i = 0; i < 100000; ++i) map[i * 2654435761u] = i + x;
  const std::int64_t t1 = now_ns();
  if (map.size() != 100000) throw std::logic_error("calibration kernel broke");
  return static_cast<double>(t1 - t0) / 1e6;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) throw std::out_of_range("span parent out of range");
    const std::int64_t lo = std::max(s.start_ns, spans[p].start_ns);
    const std::int64_t hi = std::min(s.end_ns, spans[p].end_ns);
    if (hi > lo) kids[p].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = spans[i].duration() - covered;
  }
  return out;
}

std::size_t Tracer::open(std::string name, std::uint32_t problem) {
  Span s;
  s.name = std::move(name);
  s.problem = problem;
  s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  spans_.push_back(std::move(s));
  const std::size_t index = spans_.size() - 1;
  stack_.push_back(index);
  spans_[index].start_ns = now_ns();
  return index;
}

void Tracer::close(std::size_t index) noexcept {
  const std::int64_t t = now_ns();
  // Scopes close innermost first, so `index` is on top; popping through to
  // it keeps the stack consistent even for a caller that skipped a close.
  while (!stack_.empty()) {
    const std::size_t top = stack_.back();
    stack_.pop_back();
    spans_[top].end_ns = t;
    if (top == index) break;
  }
}

}  // namespace perfbench
