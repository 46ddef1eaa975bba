#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>

#include "problems.hpp"

namespace perfbench {

namespace {

using sysdp::sim::Gating;

constexpr unsigned kP50 = 500;
constexpr unsigned kP90 = 900;
/// The p90 must have at least this many samples above it.
constexpr std::size_t kTail = 10;

struct Size {
  Family family;
  std::size_t n;
  std::size_t width = 0;
};

// Size ladders.  A round is one problem of every ladder entry, so each
// size is equally represented however long a run lasts.  Each ladder has
// 15 entries in four time bands: six fast ones, a block of three of about
// the same time, three slower ones and a top block of three.  The p50
// rank (7.5 of 15) then falls in the middle of the first block of three
// and the p90 rank (13.5 of 15) in the middle of the top one, so neither
// percentile sits on the boundary between two sizes whose times differ,
// where host noise would flip it from one size to the other.  The bands
// are ordered by time measured on a 4-thread x86-64 host; a change that
// reorders them moves the percentiles by design.
std::vector<Size> cold_ladder(bool tiny) {
  if (tiny) {
    return {{Family::kChain, 6},
            {Family::kChain, 10},
            {Family::kChain, 14},
            {Family::kMultistage, 4, 3},
            {Family::kMultistage, 6, 4}};
  }
  return {// fast: up to ~25 ms
          {Family::kMultistage, 16, 16}, {Family::kMultistage, 24, 24},
          {Family::kChain, 32},          {Family::kChain, 40},
          {Family::kMultistage, 32, 32}, {Family::kChain, 48},
          // p50 block: ~55 ms
          {Family::kChain, 64}, {Family::kChain, 64}, {Family::kChain, 64},
          // slower: ~90-140 ms
          {Family::kMultistage, 64, 48}, {Family::kChain, 80},
          {Family::kMultistage, 96, 48},
          // p90 block: ~245 ms
          {Family::kChain, 96}, {Family::kChain, 96}, {Family::kChain, 96}};
}

std::vector<Size> sim_ladder(bool tiny) {
  if (tiny) {
    return {{Family::kChain, 8},       {Family::kMultistage, 4, 4},
            {Family::kDesign2, 4, 4},  {Family::kDesign3, 4, 4},
            {Family::kBst, 8},         {Family::kPolygon, 8}};
  }
  return {// fast: up to ~0.9 ms
          {Family::kMultistage, 16, 16}, {Family::kDesign2, 16, 16},
          {Family::kDesign3, 16, 16},    {Family::kChain, 32},
          {Family::kBst, 32},            {Family::kPolygon, 32},
          // p50 block: the three linear designs at (N, m) = (64, 32), ~1.7 ms
          {Family::kMultistage, 64, 32}, {Family::kDesign2, 64, 32},
          {Family::kDesign3, 64, 32},
          // slower: ~6 ms
          {Family::kChain, 64}, {Family::kBst, 64}, {Family::kPolygon, 64},
          // p90 block: ~24 ms
          {Family::kChain, 96}, {Family::kBst, 96}, {Family::kPolygon, 96}};
}

/// rebind_mixed: the two warm shapes and the tables per shape.
std::vector<Size> warm_shapes(bool tiny) {
  if (tiny) return {{Family::kChain, 10}, {Family::kMultistage, 6, 4}};
  return {{Family::kChain, 96}, {Family::kMultistage, 96, 48}};
}
std::size_t warm_tables(bool tiny) { return tiny ? 2 : 8; }

/// Rounds of distinct problems generated up front: the fewest whole
/// rounds that give the p90 a tail of kTail distinct problems (7 rounds of
/// a 15-entry ladder).  A run that outlasts the pool starts over (the
/// library keeps nothing between solves, so a repeat is solved exactly as
/// cold as the first time).
std::size_t pool_rounds(bool tiny, std::size_t round_len) {
  const std::size_t need = samples_needed(kP90, kTail);
  return tiny ? 1 : (need + round_len - 1) / round_len;
}

/// A pool of whole rounds, each in its own seeded order.
struct Stream {
  std::vector<Problem> problems;
  std::size_t round_len = 1;
  [[nodiscard]] const Problem& at(std::size_t i) const {
    return problems[i % problems.size()];
  }
};

Stream make_stream(const std::vector<Size>& ladder, std::size_t rounds,
                   std::uint64_t seed) {
  Stream s;
  s.round_len = ladder.size();
  std::mt19937_64 order(problem_seed(seed, 0xffffffffu));
  std::uint32_t id = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<std::size_t> perm(ladder.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::shuffle(perm.begin(), perm.end(), order);
    for (const std::size_t k : perm) {
      const Size& z = ladder[k];
      Problem p = make_problem(z.family, z.n, z.width, id++, seed);
      prepare(p);
      s.problems.push_back(std::move(p));
    }
  }
  return s;
}

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

double seconds_since(std::int64_t t0) { return 1e-9 * static_cast<double>(now_ns() - t0); }

/// Timed runs correct for the host's momentary speed.  The host this
/// benchmark was built on shares its caches with other tenants: the same
/// lowering or replay ran up to 3x slower for minutes at a time while a
/// pure ALU loop kept its speed, and neither the median nor the best of
/// repeated solves within a 30 s run escaped it.  So the Calibrator kernel
/// runs between blocks of about half a second, and every solve in a block
/// is divided by the block's slowdown (the mean of the kernel times that
/// bracket it, over Calibrator::kNominalMs).  That cut the run-to-run
/// spread of the medians from 0.3-0.4 to 0.03-0.06 in a side-by-side
/// trial.  The raw figures go to the metadata record beside the corrected
/// ones.
constexpr double kBlockSeconds = 0.5;

/// Closed loop over stream items: stops at a round boundary once `seconds`
/// are spent and `min_items` are done.  `between` runs before the first
/// item, between items once a block's time has passed, and after the last
/// item.  The cap keeps a slow host inside the per-run time limit.
/// Returns the number of items run.
std::size_t drive(double seconds, std::size_t round_len, std::size_t min_items,
                  const std::function<void(std::size_t)>& step,
                  const std::function<void()>& between = [] {}) {
  const std::int64_t t0 = now_ns();
  const double cap = 3.0 * seconds + 10.0;
  between();
  std::int64_t last = now_ns();
  std::size_t i = 0;
  for (;; ++i) {
    const double el = seconds_since(t0);
    if (el >= cap) break;
    if (i % round_len == 0 && el >= seconds && i >= min_items) break;
    if (seconds_since(last) >= kBlockSeconds) {
      between();
      last = now_ns();
    }
    step(i);
  }
  between();
  return i;
}

/// Set up several times and keep the last product; `secs` gets every
/// set-up's duration corrected for host speed (calibrated before and after
/// it) and `raw` the uncorrected one.  At least three set-ups (one when
/// traced or tiny), more while they total under a second, at most nine.
template <typename T>
T timed_setups(const Options& opt, Calibrator& cal, std::vector<double>& secs,
               std::vector<double>& raw, const std::function<T()>& make) {
  const std::size_t min_reps = opt.trace || opt.tiny ? 1 : 3;
  std::optional<T> out;
  double total = 0;
  for (std::size_t rep = 0;; ++rep) {
    out.reset();  // free the previous set-up before building the next
    const double before = cal.run();
    const std::int64_t t0 = now_ns();
    out.emplace(make());
    raw.push_back(seconds_since(t0));
    const double slowdown = 0.5 * (before + cal.run()) / Calibrator::kNominalMs;
    secs.push_back(raw.back() / slowdown);
    total += raw.back();
    if (rep + 1 >= min_reps && (total >= 1.0 || rep + 1 >= 9)) break;
  }
  return std::move(*out);
}

/// Items a timed run must reach: enough for ten samples above the p90.
std::size_t timed_min_items(const Options& opt) {
  return opt.tiny ? 0 : samples_needed(kP90, kTail);
}

/// Per-run correctness and timing tally.
struct Tally {
  /// `c` may be null for a traced run, which calibrates nothing.
  explicit Tally(Calibrator* c = nullptr) : cal(c) {}

  Calibrator* cal;
  std::vector<double> cal_ms;       ///< kernel times, one per block edge
  std::vector<double> raw_s;        ///< every answered solve
  std::vector<std::size_t> block;   ///< the block each solve ran in
  std::vector<double> pe_cycles;    ///< simulated cycles x PEs of each
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double cycles = 0;   ///< engine cycles of answered solves
  double witness = 0;  ///< analytic-witness cycles of the same
  std::vector<std::string> failures;

  /// Close the current block (drive's `between` hook).
  void calibrate() { cal_ms.push_back(cal->run()); }

  /// Host slowdown of block b: its bracketing kernel times over nominal.
  [[nodiscard]] double slowdown(std::size_t b) const {
    const double after = b + 1 < cal_ms.size() ? cal_ms[b + 1] : cal_ms[b];
    return 0.5 * (cal_ms[b] + after) / Calibrator::kNominalMs;
  }

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(std::move(why));
  }
  void answered(const Problem& p, std::uint64_t engine_cycles, double secs) {
    raw_s.push_back(secs);
    block.push_back(cal_ms.empty() ? 0 : cal_ms.size() - 1);
    pe_cycles.push_back(static_cast<double>(engine_cycles) *
                        static_cast<double>(p.pes));
    cycles += static_cast<double>(engine_cycles);
    witness += static_cast<double>(p.witness_cycles);
  }
};

/// Time and check one problem: `solve` returns the outcome (and may
/// throw); any exception or mismatch is a failure, never dropped.
void attempt(Tally& t, const Problem& p,
             const std::function<Outcome()>& solve) {
  ++t.attempted;
  const std::int64_t t0 = now_ns();
  std::string err;
  Outcome o;
  try {
    o = solve();
    err = check(p, o);
  } catch (const std::exception& e) {
    err = p.label() + ": " + e.what();
  }
  const double secs = seconds_since(t0);
  if (err.empty()) {
    t.answered(p, o.cycles, secs);
  } else {
    t.fail(std::move(err));
  }
}

void finish_end_to_end(Report& r, const Tally& t,
                       const std::vector<double>& setup_s,
                       const std::vector<double>& setup_raw,
                       std::size_t items) {
  r.attempted = t.attempted;
  r.failed = t.failed;
  r.failures = t.failures;
  std::vector<double> ms, raw_ms;
  double norm_sum = 0, raw_sum = 0, pe_cycles = 0;
  for (std::size_t i = 0; i < t.raw_s.size(); ++i) {
    const double s = t.raw_s[i] / t.slowdown(t.block[i]);
    ms.push_back(s * 1e3);
    raw_ms.push_back(t.raw_s[i] * 1e3);
    norm_sum += s;
    raw_sum += t.raw_s[i];
    pe_cycles += t.pe_cycles[i];
  }
  const double answered = static_cast<double>(t.attempted - t.failed);
  r.metrics = {
      {"solve_p50_ms", quantile(ms, kP50), "ms"},
      {"solve_p90_ms", quantile(ms, kP90), "ms"},
      {"solves_per_s", ratio(static_cast<double>(ms.size()), norm_sum), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"answer_ok_frac", ratio(answered, static_cast<double>(t.attempted)),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_pe_cycles_per_s", ratio(pe_cycles, norm_sum), "1/s"},
      {"sim_cycle_ratio", ratio(t.cycles, t.witness), "ratio"},
  };
  std::vector<double> slow;
  for (std::size_t b = 0; b < t.cal_ms.size(); ++b) slow.push_back(t.slowdown(b));
  r.counts = {{"samples", static_cast<double>(ms.size())},
              {"samples_above_p90",
               static_cast<double>(samples_above(ms.size(), kP90))},
              {"items", static_cast<double>(items)},
              {"calibrations", static_cast<double>(t.cal_ms.size())},
              {"slowdown_median", median(slow)},
              {"slowdown_min", slow.empty() ? 0.0 : *std::min_element(slow.begin(), slow.end())},
              {"slowdown_max", slow.empty() ? 0.0 : *std::max_element(slow.begin(), slow.end())},
              {"raw_p50_ms", quantile(raw_ms, kP50)},
              {"raw_p90_ms", quantile(raw_ms, kP90)},
              {"raw_solves_per_s", ratio(static_cast<double>(raw_ms.size()), raw_sum)},
              {"raw_setup_s", median(setup_raw)},
              {"setup_reps", static_cast<double>(setup_s.size())},
              {"solve_s", raw_sum}};
}

// ------------------------------------------------------------ ledger ----

/// Span aggregates keyed "root/name" (a root span's key is its name), so
/// the same layer under different roots — a solve's arrays.build and a
/// probe's — stays apart.
class Ledger {
 public:
  struct Agg {
    double dur_ns = 0;
    double self_ns = 0;
    double ops = 0;
    std::uint64_t calls = 0;
  };

  Ledger(const std::vector<Span>& spans,
         const std::map<std::uint32_t, double>& ops_of) {
    const auto self = self_times(spans);
    std::vector<std::size_t> root(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      root[i] = s.parent < 0 ? i : root[static_cast<std::size_t>(s.parent)];
      const std::string key =
          s.parent < 0 ? s.name : spans[root[i]].name + "/" + s.name;
      if (s.parent < 0 &&
          std::find(roots_.begin(), roots_.end(), s.name) == roots_.end()) {
        roots_.push_back(s.name);
      }
      Agg& a = agg_[key];
      a.dur_ns += static_cast<double>(s.duration());
      a.self_ns += static_cast<double>(self[i]);
      const auto it = ops_of.find(s.problem);
      if (it != ops_of.end()) a.ops += it->second;
      ++a.calls;
      auto& pp = per_problem_[{s.problem, key}];
      pp.first += static_cast<double>(s.duration());
      ++pp.second;
    }
  }

  [[nodiscard]] Agg get(const std::string& key) const {
    const auto it = agg_.find(key);
    return it == agg_.end() ? Agg{} : it->second;
  }
  [[nodiscard]] double total_ns(const std::string& key) const {
    return get(key).dur_ns;
  }
  [[nodiscard]] double ms_per_call(const std::string& key) const {
    const Agg a = get(key);
    return a.calls > 0 ? a.dur_ns / static_cast<double>(a.calls) / 1e6 : 0.0;
  }
  [[nodiscard]] double self_ms_per_call(const std::string& key) const {
    const Agg a = get(key);
    return a.calls > 0 ? a.self_ns / static_cast<double>(a.calls) / 1e6 : 0.0;
  }
  [[nodiscard]] double ns_per_op(const std::string& key) const {
    const Agg a = get(key);
    return a.ops > 0 ? a.dur_ns / a.ops : 0.0;
  }
  /// Mean duration of the `key` spans of one problem (a problem the run
  /// met twice, after the pool wrapped, averages its two passes).
  [[nodiscard]] double problem_ns(std::uint32_t id,
                                  const std::string& key) const {
    const auto it = per_problem_.find({id, key});
    return it == per_problem_.end()
               ? 0.0
               : it->second.first / static_cast<double>(it->second.second);
  }

  /// One table per root: each layer's calls, self time, share of the
  /// root's time and ns per op.
  [[nodiscard]] std::string tables() const {
    std::string out;
    char line[256];
    for (const std::string& r : roots_) {
      const Agg ra = get(r);
      std::snprintf(line, sizeof line,
                    "\n[%s] %llu calls, %.3f ms total, %.4f ms per call\n",
                    r.c_str(), static_cast<unsigned long long>(ra.calls),
                    ra.dur_ns / 1e6,
                    ra.calls > 0 ? ra.dur_ns / 1e6 / static_cast<double>(ra.calls) : 0.0);
      out += line;
      std::snprintf(line, sizeof line, "  %-28s %8s %14s %14s %9s %10s\n",
                    "layer", "calls", "self ms", "self ms/call", "share",
                    "ns/op");
      out += line;
      std::vector<std::pair<std::string, Agg>> rows;
      for (const auto& [k, a] : agg_) {
        if (k.size() > r.size() + 1 && k.compare(0, r.size() + 1, r + "/") == 0) {
          rows.emplace_back(k.substr(r.size() + 1), a);
        }
      }
      rows.emplace_back("(self)", Agg{ra.self_ns, ra.self_ns, ra.ops, ra.calls});
      std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.self_ns > b.second.self_ns;
      });
      for (const auto& [name, a] : rows) {
        std::snprintf(
            line, sizeof line, "  %-28s %8llu %14.3f %14.4f %8.2f%% %10.2f\n",
            name.c_str(), static_cast<unsigned long long>(a.calls),
            a.self_ns / 1e6,
            a.calls > 0 ? a.self_ns / 1e6 / static_cast<double>(a.calls) : 0.0,
            ra.dur_ns > 0 ? 100.0 * a.self_ns / ra.dur_ns : 0.0,
            a.ops > 0 ? a.self_ns / a.ops : 0.0);
        out += line;
      }
    }
    return out;
  }

 private:
  std::vector<std::string> roots_;
  std::map<std::string, Agg> agg_;
  /// (problem, key) -> (summed duration, spans).
  std::map<std::pair<std::uint32_t, std::string>,
           std::pair<double, std::uint64_t>>
      per_problem_;
};

/// Accumulated engine and tape facts of a traced run.
struct Facts {
  double problems = 0;
  double ops = 0, levels = 0, slots = 0, params = 0;
  double lanes = 0, named = 0, findings = 0;
  double busy = 0, excess = 0;
  double sim_runs = 0, sim_cycles = 0, active = 0, dense = 0;
  double traced_ns = 0, untraced_ns = 0;

  void sim(const Outcome& o, const SimFacts& f) {
    ++sim_runs;
    sim_cycles += static_cast<double>(o.cycles);
    active += static_cast<double>(f.active_evals);
    dense += static_cast<double>(f.dense_evals);
  }
  void engine(const Problem& p, const Outcome& o) {
    ++problems;
    busy += static_cast<double>(o.busy);
    excess += std::abs(static_cast<double>(o.cycles) -
                       static_cast<double>(p.witness_cycles));
  }
};

/// Layer metrics every workload reports the same way.
void common_layers(std::map<std::string, double>& m, const Ledger& L,
                   const Facts& f, const std::string& sim_key,
                   const std::string& solve_root) {
  m["sim.run_ms"] = L.ms_per_call(sim_key);
  m["sim.cycles"] = ratio(f.sim_cycles, f.sim_runs);
  m["sim.active_evals"] = ratio(f.active, f.sim_runs);
  m["sim.dense_evals"] = ratio(f.dense, f.sim_runs);
  m["sim.activity"] = ratio(f.active, f.dense);
  m["sim.evals_per_s"] = ratio(f.active, L.total_ns(sim_key) * 1e-9);
  m["arrays.busy_steps"] = ratio(f.busy, f.problems);
  m["arrays.cycle_excess"] = ratio(f.excess, f.problems);
  m["baseline.solve_ms"] = L.ms_per_call("baseline.solve");
  m["core.solve_ms"] = L.ms_per_call("core.solve");
  m["bench.check_ms"] = L.self_ms_per_call(solve_root);
  m["trace.overhead_frac"] =
      ratio(f.traced_ns - f.untraced_ns, f.untraced_ns);
}

/// Exponent of a layer's per-problem time against op count, one family.
PowerFit fit_layer(const Ledger& L, const std::vector<const Problem*>& ps,
                   const std::function<double(const Ledger&, std::uint32_t)>& y_of) {
  std::vector<double> x, y;
  for (const Problem* p : ps) {
    x.push_back(static_cast<double>(p->witness_busy));
    y.push_back(y_of(L, p->id));
  }
  return fit_power_law(x, y);
}

std::function<double(const Ledger&, std::uint32_t)> span_of(std::string key) {
  return [key](const Ledger& L, std::uint32_t id) { return L.problem_ns(id, key); };
}

double record_ns(const Ledger& L, std::uint32_t id) {
  return L.problem_ns(id, "probe.record/compile.lower_nocapture") -
         L.problem_ns(id, "probe.sim/sim.run");
}

double provenance_ns(const Ledger& L, std::uint32_t id) {
  return L.problem_ns(id, "probe.provenance/compile.lower_nocompact") -
         L.problem_ns(id, "probe.record/compile.lower_nocapture") -
         L.problem_ns(id, "probe.capture/analysis.capture");
}

/// Scaling exponents per family; returns the ledger lines.
std::string fit_families(std::map<std::string, double>& m, const Ledger& L,
                         const std::vector<const Problem*>& done,
                         bool compiled) {
  struct Layer {
    const char* metric;
    std::function<double(const Ledger&, std::uint32_t)> y;
  };
  std::vector<Layer> layers;
  if (compiled) {
    layers = {{"compile.lower", span_of("solve/compile.lower")},
              {"compile.record", record_ns},
              {"compile.provenance", provenance_ns},
              {"analysis.capture", span_of("probe.capture/analysis.capture")},
              {"analysis.verify", span_of("solve/analysis.verify")},
              {"sim.run", span_of("probe.sim/sim.run")}};
  } else {
    layers = {{"sim.run", span_of("solve/sim.run")}};
  }
  std::string out = "\nscaling exponents (layer time ~ ops^b, least squares on logs):\n";
  char line[160];
  for (const auto& [fam, suffix] :
       std::vector<std::pair<Family, std::string>>{
           {Family::kChain, "chain"}, {Family::kMultistage, "multistage"}}) {
    std::vector<const Problem*> ps;
    for (const Problem* p : done) {
      if (p->family == fam) ps.push_back(p);
    }
    std::size_t points = 0;
    for (const Layer& l : layers) {
      const PowerFit f = fit_layer(L, ps, l.y);
      points = std::max(points, f.points);
      m[std::string(l.metric) + ".exp_" + suffix] = f.ok ? f.exponent : 0.0;
      std::snprintf(line, sizeof line, "  %-18s %-10s b = %s  (%zu points)\n",
                    l.metric, suffix.c_str(),
                    f.ok ? std::to_string(f.exponent).c_str() : "n/a",
                    f.points);
      out += line;
    }
    m["fit.points_" + suffix] = static_cast<double>(points);
  }
  return out;
}

/// The lower_array split, from the probe spans, over a set of problems.
struct Split {
  double lower = 0;       ///< the measured lowering itself
  double capture = 0;     ///< analysis::capture
  double provenance = 0;  ///< rest of what capture_netlist=true costs
  double sim = 0;         ///< the oracle's sim run
  double record = 0;      ///< recording on top of the sim run
  double compact = 0;     ///< compact_slots
  bool compacted = true;  ///< whether the measured lowering compacts
  [[nodiscard]] double unattributed() const {
    return lower - capture - provenance - sim - record -
           (compacted ? compact : 0.0);
  }
};

Split split_of(const Ledger& L, const std::vector<const Problem*>& ps,
               const std::string& lower_key, bool compacted) {
  Split s;
  s.compacted = compacted;
  for (const Problem* p : ps) {
    s.lower += L.problem_ns(p->id, lower_key);
    s.capture += L.problem_ns(p->id, "probe.capture/analysis.capture");
    s.provenance += provenance_ns(L, p->id);
    s.sim += L.problem_ns(p->id, "probe.sim/sim.run");
    s.record += record_ns(L, p->id);
    s.compact += L.problem_ns(p->id, "probe.record/compile.compact");
  }
  return s;
}

std::string split_text(const Split& s, const std::string& title) {
  std::vector<std::pair<std::string, double>> rows = {
      {"analysis.capture", s.capture},
      {"compile.provenance", s.provenance},
      {"compile.record", s.record},
      {"sim.run (oracle)", s.sim},
      {"unattributed", s.unattributed()}};
  if (s.compacted) rows.push_back({"compile.compact", s.compact});
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::string out = "\n" + title + "\n";
  char line[160];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(line, sizeof line,
                  "  %zu. %-20s %12.3f ms  %7.2f%% of lower_array\n", i + 1,
                  rows[i].first.c_str(), rows[i].second / 1e6,
                  s.lower > 0 ? 100.0 * rows[i].second / s.lower : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "  capture_netlist=true as a whole (capture + provenance): "
                "%.2f%% of lower_array\n",
                s.lower > 0 ? 100.0 * (s.capture + s.provenance) / s.lower : 0.0);
  return out + line;
}

const char* kSplitHow =
    "\nhow lower_array is split (public calls, each on a fresh array, outside the solve):\n"
    "  analysis.capture   = analysis::capture on a freshly elaborated serial dense engine\n"
    "                       with the array's describe_environment taps\n"
    "  sim.run            = a run on a serial dense sim::Engine (the oracle's configuration)\n"
    "  compile.record     = lower_array(capture_netlist=false, compact=false) - sim.run\n"
    "  compile.provenance = lower_array(capture_netlist=true, compact=false)\n"
    "                       - lower_array(capture_netlist=false, compact=false) - analysis.capture:\n"
    "                       what capture_netlist=true costs beyond the capture call\n"
    "                       (resolving recorder lanes against the netlist)\n"
    "  compile.compact    = compact_slots on the capture-free tape\n"
    "  unattributed       = the solve's lower_array - the pieces above (noise and option effects)\n";

/// Run `untraced` and `traced` in alternating order (so neither always
/// runs on caches the other warmed) and add their times to the facts.
void paired(std::size_t i, Facts& f, Tracer& tr, const char* root,
            std::uint32_t id, const std::function<void(Tracer*)>& solve) {
  auto untraced = [&] {
    const std::int64_t t0 = now_ns();
    solve(nullptr);
    f.untraced_ns += static_cast<double>(now_ns() - t0);
  };
  auto traced = [&] {
    const std::int64_t t0 = now_ns();
    {
      Scope s(&tr, root, id);
      solve(&tr);
    }
    f.traced_ns += static_cast<double>(now_ns() - t0);
  };
  if (i % 2 == 0) {
    untraced();
    traced();
  } else {
    traced();
    untraced();
  }
}

void throw_if(const std::string& err) {
  if (!err.empty()) throw std::runtime_error(err);
}

/// Fill a traced run's report: every per-layer metric (0 for a layer the
/// workload does not exercise), the ledger text and the spans.
void finish_traced(Report& r, const Tally& t, const Tracer& tr,
                   std::map<std::string, double>& m, std::string ledger,
                   double wall, std::size_t items) {
  r.attempted = t.attempted;
  r.failed = t.failed;
  r.failures = t.failures;
  for (const auto& [name, unit] : per_layer_metrics()) {
    r.metrics.push_back({name, m.count(name) ? m[name] : 0.0, unit});
  }
  r.ledger = std::move(ledger);
  r.spans = tr.spans();
  r.counts = {{"items", static_cast<double>(items)},
              {"traced_s", wall},
              {"spans", static_cast<double>(r.spans.size())}};
}

// --------------------------------------------------------- workloads ----

Report cold_mixed(const Options& opt) {
  Report r;
  std::vector<double> setup_s;
  const auto ladder = cold_ladder(opt.tiny);
  Calibrator cal;
  std::vector<double> setup_raw;
  const Stream stream = timed_setups<Stream>(opt, cal, setup_s, setup_raw, [&] {
    return make_stream(ladder, pool_rounds(opt.tiny, ladder.size()), opt.seed);
  });
  if (!opt.trace) {
    Tally t(&cal);
    const std::size_t items = drive(
        opt.seconds, stream.round_len, timed_min_items(opt),
        [&](std::size_t i) {
          const Problem& p = stream.at(i);
          attempt(t, p, [&] { return solve_cold(p, nullptr); });
        },
        [&] { t.calibrate(); });
    finish_end_to_end(r, t, setup_s, setup_raw, items);
    return r;
  }

  Tracer tr;
  Facts f;
  Tally t;
  const std::int64_t t0 = now_ns();
  std::map<std::uint32_t, double> ops_of;
  std::vector<const Problem*> done;
  const std::size_t items =
      drive(opt.seconds, stream.round_len, 0, [&](std::size_t i) {
        const Problem& p = stream.at(i);
        ++t.attempted;
        TapeFacts tf;
        try {
          Outcome o;
          paired(i, f, tr, "solve", p.id, [&](Tracer* x) {
            o = solve_cold(p, x, x != nullptr ? &tf : nullptr);
            throw_if(check(p, o));
          });
          SimFacts sf;
          const Outcome so = probe_lowering(p, tr, &sf);
          run_floors(p, tr);
          f.engine(p, o);
          f.sim(so, sf);
          f.ops += static_cast<double>(tf.ops);
          f.levels += static_cast<double>(tf.levels);
          f.slots += static_cast<double>(tf.slots);
          f.params += static_cast<double>(tf.params);
          f.lanes += static_cast<double>(tf.lanes);
          f.named += static_cast<double>(tf.named_lanes);
          if (ops_of.emplace(p.id, static_cast<double>(p.witness_busy)).second) {
            done.push_back(&p);  // once per problem, even after the pool wraps
          }
        } catch (const std::exception& e) {
          t.fail(p.label() + ": " + e.what());
        }
        f.findings += static_cast<double>(tf.verify_errors);
      });

  const Ledger L(tr.spans(), ops_of);
  std::map<std::string, double> m;
  common_layers(m, L, f, "probe.sim/sim.run", "solve");
  const double n = f.problems;
  m["compile.lower_ms"] = L.ms_per_call("solve/compile.lower");
  m["compile.lower_ns_per_op"] = L.ns_per_op("solve/compile.lower");
  m["analysis.capture_ms"] = L.ms_per_call("probe.capture/analysis.capture");
  m["analysis.capture_named_frac"] = ratio(f.named, f.lanes);
  const Split all = split_of(L, done, "solve/compile.lower", true);
  m["compile.record_ms"] = ratio(all.record / 1e6, n);
  m["compile.provenance_ms"] = ratio(all.provenance / 1e6, n);
  m["compile.compact_ms"] = L.ms_per_call("probe.record/compile.compact");
  m["compile.lower_unattributed_frac"] = ratio(all.unattributed(), all.lower);
  m["analysis.verify_ms"] = L.ms_per_call("solve/analysis.verify");
  m["analysis.verify_ns_per_op"] = L.ns_per_op("solve/analysis.verify");
  m["analysis.verify_findings"] = f.findings;
  m["compile.engine_init_ms"] = L.ms_per_call("solve/compile.engine");
  m["compile.replay_ms"] = L.ms_per_call("solve/compile.replay");
  m["compile.replay_ns_per_op"] = L.ns_per_op("solve/compile.replay");
  m["compile.extract_ms"] = L.ms_per_call("solve/compile.extract");
  m["compile.ops"] = ratio(f.ops, n);
  m["compile.levels"] = ratio(f.levels, n);
  m["compile.slots"] = ratio(f.slots, n);
  m["compile.params"] = ratio(f.params, n);
  m["arrays.build_ms"] = L.ms_per_call("solve/arrays.build");
  m["compile.cold_over_sim"] =
      ratio(L.total_ns("solve"), L.total_ns("probe.sim/sim.run"));
  std::string text = L.tables() + kSplitHow;
  text += split_text(all, "lower_array split, all problems:");
  std::size_t top = 0;
  for (const Problem* p : done) {
    if (p->family == Family::kChain) top = std::max(top, p->n);
  }
  std::vector<const Problem*> largest;
  for (const Problem* p : done) {
    if (p->family == Family::kChain && p->n == top) largest.push_back(p);
  }
  text += split_text(split_of(L, largest, "solve/compile.lower", true),
                     "lower_array split, largest chain problems (n = " +
                      std::to_string(top) + ", " +
                      std::to_string(largest.size()) + " problems), ranked:");
  text += fit_families(m, L, done, true);
  finish_traced(r, t, tr, m, std::move(text), seconds_since(t0), items);
  return r;
}

Report rebind_mixed(const Options& opt) {
  Report r;
  std::vector<double> setup_s;
  const auto shapes = warm_shapes(opt.tiny);
  const std::size_t k_tables = warm_tables(opt.tiny);
  Tracer tr;
  Tracer* setup_tr = opt.trace ? &tr : nullptr;
  auto setup = [&] {
    std::optional<Scope> root;
    if (setup_tr != nullptr) root.emplace(setup_tr, "setup", 0);
    std::vector<WarmShape> ws;
    std::uint32_t id = 0;
    for (const Size& z : shapes) {
      std::optional<Problem> shape;
      std::vector<Problem> inst;
      {
        Scope s(setup_tr, "setup.reference", id);
        shape.emplace(make_problem(z.family, z.n, z.width, id++, opt.seed));
        prepare(*shape);
        for (std::size_t k = 0; k < k_tables; ++k) {
          inst.push_back(make_problem(z.family, z.n, z.width, id++, opt.seed));
          prepare(inst.back());
        }
      }
      ws.push_back(prepare_warm_shape(std::move(*shape), std::move(inst), setup_tr));
    }
    return ws;
  };
  Calibrator cal;
  std::vector<double> setup_raw;
  std::vector<WarmShape> ws = timed_setups<std::vector<WarmShape>>(
      opt, cal, setup_s, setup_raw, setup);

  // Requests alternate between the shapes, two chain requests per
  // multistage one (c m c | c m c | ...), each shape walking its tables.
  // With equal counts the p50 would sit exactly on the boundary between
  // the two shapes' request times; at 2:1 both percentiles fall inside
  // one shape's samples.
  constexpr std::size_t kRound = 3;
  auto slot = [&](std::size_t i) -> std::pair<WarmShape*, std::size_t> {
    const std::size_t round = i / kRound;
    const std::size_t pos = i % kRound;
    if (pos == 1) return {&ws[1], round % k_tables};
    return {&ws[0], (2 * round + pos / 2) % k_tables};
  };
  auto request = [&](std::size_t i, Tracer* x) {
    const auto [w, k] = slot(i);
    const Problem& p = w->instances[k];
    if (!w->table_error[k].empty()) throw std::runtime_error(w->table_error[k]);
    Outcome o;
    o.answer = warm_request(*w, k, x);
    o.cycles = w->table_cycles[k];
    o.busy = p.witness_busy;  // checked when the table was derived
    return o;
  };
  if (!opt.trace) {
    Tally t(&cal);
    const std::size_t items = drive(
        opt.seconds, kRound, timed_min_items(opt),
        [&](std::size_t i) {
          const auto [w, k] = slot(i);
          attempt(t, w->instances[k], [&] { return request(i, nullptr); });
        },
        [&] { t.calibrate(); });
    finish_end_to_end(r, t, setup_s, setup_raw, items);
    return r;
  }

  Facts f;
  Tally t;
  const std::int64_t t0 = now_ns();
  std::map<std::uint32_t, double> ops_of;
  std::vector<const Problem*> shape_ps;
  for (WarmShape& w : ws) {
    ++t.attempted;
    try {
      SimFacts sf;
      f.sim(probe_lowering(w.shape, tr, &sf), sf);
      shape_ps.push_back(&w.shape);
      ops_of[w.shape.id] = static_cast<double>(w.shape.witness_busy);
      for (std::size_t k = 0; k < w.instances.size(); ++k) {
        const Problem& p = w.instances[k];
        ops_of[p.id] = static_cast<double>(p.witness_busy);
        run_floors(p, tr);
        if (w.table_error[k].empty()) f.engine(p, {p.answer, w.table_cycles[k], p.witness_busy});
      }
    } catch (const std::exception& e) {
      t.fail(w.shape.label() + ": " + e.what());
    }
  }
  double replayed_ops = 0;
  std::map<std::uint32_t, double> requests_of;
  const std::size_t items = drive(opt.seconds, kRound, 0, [&](std::size_t i) {
    const auto [w, k] = slot(i);
    const Problem& p = w->instances[k];
    ++t.attempted;
    try {
      paired(i, f, tr, "request", p.id, [&](Tracer* x) {
        throw_if(check(p, request(i, x)));
      });
      replayed_ops += static_cast<double>(w->net->num_ops());
      requests_of[p.id] += 1;
    } catch (const std::exception& e) {
      t.fail(p.label() + ": " + e.what());
    }
  });

  const Ledger L(tr.spans(), ops_of);
  std::map<std::string, double> m;
  common_layers(m, L, f, "probe.sim/sim.run", "request");
  const double shapes_n = static_cast<double>(ws.size());
  // Sums of the warm shapes' optimized-tape facts.
  double lanes = 0, named = 0, ops = 0, levels = 0, slots_n = 0, params = 0,
         pruned = 0, fused = 0;
  for (const WarmShape& w : ws) {
    const auto& net = *w.net;
    lanes += static_cast<double>(net.stats.lanes_bound);
    named += static_cast<double>(net.stats.named_lanes);
    ops += static_cast<double>(net.num_ops());
    levels += static_cast<double>(net.cycles());
    slots_n += static_cast<double>(net.num_slots);
    params += static_cast<double>(net.num_params());
    pruned += static_cast<double>(net.stats.ops_pruned);
    fused += static_cast<double>(net.stats.levels_fused);
  }
  m["compile.lower_ms"] = L.ms_per_call("setup/compile.lower");
  m["compile.lower_ns_per_op"] = L.ns_per_op("setup/compile.lower");
  m["analysis.capture_ms"] = L.ms_per_call("probe.capture/analysis.capture");
  m["analysis.capture_named_frac"] = ratio(named, lanes);
  const Split split = split_of(L, shape_ps, "setup/compile.lower", false);
  m["compile.record_ms"] = ratio(split.record / 1e6, shapes_n);
  m["compile.provenance_ms"] = ratio(split.provenance / 1e6, shapes_n);
  m["compile.compact_ms"] = L.ms_per_call("setup/compile.compact");
  m["compile.lower_unattributed_frac"] = ratio(split.unattributed(), split.lower);
  m["compile.optimize_ms"] = L.ms_per_call("setup/compile.optimize");
  m["compile.ops_pruned"] = ratio(pruned, shapes_n);
  m["compile.levels_fused"] = ratio(fused, shapes_n);
  m["analysis.verify_ms"] = L.ms_per_call("setup/analysis.verify");
  m["analysis.verify_ns_per_op"] = ratio(L.total_ns("setup/analysis.verify"), ops);
  m["analysis.verify_findings"] = 0;  // a finding aborts the set-up
  m["compile.engine_init_ms"] = L.ms_per_call("setup/compile.engine");
  m["compile.bind_ms"] = L.ms_per_call("request/compile.bind");
  m["compile.replay_ms"] = L.ms_per_call("request/compile.replay");
  m["compile.replay_ns_per_op"] = ratio(L.total_ns("request/compile.replay"), replayed_ops);
  m["compile.extract_ms"] = L.ms_per_call("request/compile.extract");
  m["compile.ops"] = ratio(ops, shapes_n);
  m["compile.levels"] = ratio(levels, shapes_n);
  m["compile.slots"] = ratio(slots_n, shapes_n);
  m["compile.params"] = ratio(params, shapes_n);
  m["arrays.build_ms"] = L.ms_per_call("setup/arrays.build");
  double baseline_ns = 0;  // the baseline's time for the same request mix
  for (const auto& [id, count] : requests_of) {
    baseline_ns += count * L.problem_ns(id, "baseline.solve");
  }
  m["compile.warm_over_baseline"] = ratio(L.total_ns("request"), baseline_ns);
  std::string text = L.tables() + kSplitHow;
  text += split_text(split,
                     "lower_array split, warm shapes (parameterised, not compacted):");
  text += "\nscaling exponents: n/a (one shape per family)\n";
  finish_traced(r, t, tr, m, std::move(text), seconds_since(t0), items);
  return r;
}

Report sim_sweep(const Options& opt) {
  Report r;
  std::vector<double> setup_s;
  const auto ladder = sim_ladder(opt.tiny);
  Calibrator cal;
  std::vector<double> setup_raw;
  const Stream stream = timed_setups<Stream>(opt, cal, setup_s, setup_raw, [&] {
    return make_stream(ladder, pool_rounds(opt.tiny, ladder.size()), opt.seed);
  });
  if (!opt.trace) {
    Tally t(&cal);
    const std::size_t items = drive(
        opt.seconds, stream.round_len, timed_min_items(opt),
        [&](std::size_t i) {
          const Problem& p = stream.at(i);
          attempt(t, p, [&] {
            return run_interpreted(p, Gating::kSparse, nullptr);
          });
        },
        [&] { t.calibrate(); });
    finish_end_to_end(r, t, setup_s, setup_raw, items);
    return r;
  }

  Tracer tr;
  Facts f;
  Tally t;
  const std::int64_t t0 = now_ns();
  std::map<std::uint32_t, double> ops_of;
  std::vector<const Problem*> done;
  const std::size_t items =
      drive(opt.seconds, stream.round_len, 0, [&](std::size_t i) {
        const Problem& p = stream.at(i);
        ++t.attempted;
        try {
          Outcome o;
          SimFacts sf;
          paired(i, f, tr, "solve", p.id, [&](Tracer* x) {
            o = run_interpreted(p, Gating::kSparse, x, &sf);
            throw_if(check(p, o));
          });
          run_floors(p, tr);
          f.engine(p, o);
          f.sim(o, sf);
          if (ops_of.emplace(p.id, static_cast<double>(p.witness_busy)).second) {
            done.push_back(&p);  // once per problem, even after the pool wraps
          }
        } catch (const std::exception& e) {
          t.fail(p.label() + ": " + e.what());
        }
      });

  const Ledger L(tr.spans(), ops_of);
  std::map<std::string, double> m;
  common_layers(m, L, f, "solve/sim.run", "solve");
  m["arrays.build_ms"] = L.ms_per_call("solve/arrays.build");
  std::string text = L.tables();
  text += fit_families(m, L, done, false);
  finish_traced(r, t, tr, m, std::move(text), seconds_since(t0), items);
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cold_mixed", "rebind_mixed",
                                                 "sim_sweep"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"solve_p50_ms", "ms"},       {"solve_p90_ms", "ms"},
      {"solves_per_s", "1/s"},      {"setup_s", "s"},
      {"answer_ok_frac", "ratio"},  {"peak_rss_mb", "MB"},
      {"sim_pe_cycles_per_s", "1/s"}, {"sim_cycle_ratio", "ratio"}};
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"analysis.capture_ms", "ms"},
      {"analysis.capture_named_frac", "ratio"},
      {"analysis.capture.exp_chain", "exponent"},
      {"analysis.capture.exp_multistage", "exponent"},
      {"analysis.verify_ms", "ms"},
      {"analysis.verify_ns_per_op", "ns/op"},
      {"analysis.verify_findings", "count"},
      {"analysis.verify.exp_chain", "exponent"},
      {"analysis.verify.exp_multistage", "exponent"},
      {"arrays.build_ms", "ms"},
      {"arrays.busy_steps", "count"},
      {"arrays.cycle_excess", "cycles"},
      {"baseline.solve_ms", "ms"},
      {"bench.check_ms", "ms"},
      {"compile.record_ms", "ms"},
      {"compile.record.exp_chain", "exponent"},
      {"compile.record.exp_multistage", "exponent"},
      {"compile.provenance_ms", "ms"},
      {"compile.provenance.exp_chain", "exponent"},
      {"compile.provenance.exp_multistage", "exponent"},
      {"compile.compact_ms", "ms"},
      {"compile.lower_ms", "ms"},
      {"compile.lower_ns_per_op", "ns/op"},
      {"compile.lower.exp_chain", "exponent"},
      {"compile.lower.exp_multistage", "exponent"},
      {"compile.lower_unattributed_frac", "ratio"},
      {"compile.optimize_ms", "ms"},
      {"compile.ops_pruned", "count"},
      {"compile.levels_fused", "count"},
      {"compile.engine_init_ms", "ms"},
      {"compile.bind_ms", "ms"},
      {"compile.params", "count"},
      {"compile.replay_ms", "ms"},
      {"compile.replay_ns_per_op", "ns/op"},
      {"compile.extract_ms", "ms"},
      {"compile.ops", "count"},
      {"compile.levels", "count"},
      {"compile.slots", "count"},
      {"compile.cold_over_sim", "ratio"},
      {"compile.warm_over_baseline", "ratio"},
      {"core.solve_ms", "ms"},
      {"fit.points_chain", "count"},
      {"fit.points_multistage", "count"},
      {"sim.run_ms", "ms"},
      {"sim.cycles", "cycles"},
      {"sim.active_evals", "count"},
      {"sim.dense_evals", "count"},
      {"sim.activity", "ratio"},
      {"sim.evals_per_s", "1/s"},
      {"sim.run.exp_chain", "exponent"},
      {"sim.run.exp_multistage", "exponent"},
      {"trace.overhead_frac", "ratio"}};
  return m;
}

Report run_workload(const Options& opt) {
  if (opt.workload == "cold_mixed") return cold_mixed(opt);
  if (opt.workload == "rebind_mixed") return rebind_mixed(opt);
  if (opt.workload == "sim_sweep") return sim_sweep(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
