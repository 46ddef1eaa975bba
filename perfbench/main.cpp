// perfbench: problem-in, answer-out benchmark of the systolic DP library.
//
//   perfbench --workload <cold_mixed|rebind_mixed|sim_sweep> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--commit <id>] [--source-digest <hex>]
//
// Runs one workload on one thread and prints, as the last line of standard
// output, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  The line
// before it is the run's metadata record; a traced run prints its ledger
// above both.  With --out-dir the result, the ledger and the spans are also
// written there.  perfbench/run.py builds this binary and drives it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Every digit a double carries (round-trip precision).
std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_line(const Report& r) {
  std::string s = "{\"correct\": ";
  s += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i > 0) s += ", ";
    s += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}}";
}

struct Args {
  perfbench::Options opt;
  std::string out_dir;
  std::string commit = "unknown";
  std::string digest = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.opt.workload = val;
      have[0] = true;
    } else if (key == "--seed") {
      a.opt.seed = std::stoull(val);
      have[1] = true;
    } else if (key == "--seconds") {
      a.opt.seconds = std::stod(val);
      have[2] = a.opt.seconds > 0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.opt.trace = val == "1";
      have[3] = true;
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else if (key == "--commit") {
      a.commit = val;
    } else if (key == "--source-digest") {
      a.digest = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    throw std::invalid_argument(
        "need --workload, --seed, --seconds (> 0) and --trace");
  }
  return a;
}

std::string metadata(const Args& a, const Report& r) {
  const unsigned threads = std::thread::hardware_concurrency();
  const std::string build = PERFBENCH_BUILD_TYPE;
  std::string labels;
  auto label = [&](const char* l) {
    if (!labels.empty()) labels += ", ";
    labels += json_string(l);
  };
  if (build != "Release") label("non-release-build");
  if (threads < 4) label("small-host");
  std::string s = "{\"meta\": {";
  s += "\"workload\": " + json_string(a.opt.workload);
  s += ", \"seed\": " + std::to_string(a.opt.seed);
  s += ", \"seconds\": " + json_number(a.opt.seconds);
  s += ", \"trace\": " + std::string(a.opt.trace ? "1" : "0");
  s += ", \"hardware_threads\": " + std::to_string(threads);
  s += ", \"threads_used\": 1";
  s += ", \"build_type\": " + json_string(build);
  s += ", \"compiler\": " + json_string(__VERSION__);
  s += ", \"steady_clock_resolution_ns\": " +
       std::to_string(perfbench::clock_resolution_ns());
  s += ", \"git_commit\": " + json_string(a.commit);
  s += ", \"source_digest\": " + json_string(a.digest);
  s += ", \"labels\": [" + labels + "]";
  s += ", \"counts\": {";
  for (std::size_t i = 0; i < r.counts.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_string(r.counts[i].first) + ": " + json_number(r.counts[i].second);
  }
  s += "}, \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_string(r.failures[i]);
  }
  return s + "]}}";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string spans_jsonl(const Report& r) {
  std::string s;
  for (const auto& sp : r.spans) {
    s += "{\"name\": " + json_string(sp.name) +
         ", \"start_ns\": " + std::to_string(sp.start_ns) +
         ", \"end_ns\": " + std::to_string(sp.end_ns) +
         ", \"parent\": " + std::to_string(sp.parent) +
         ", \"problem\": " + std::to_string(sp.problem) + "}\n";
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    const Report r = perfbench::run_workload(a.opt);
    const std::string meta = metadata(a, r);
    const std::string result = result_line(r);
    if (!a.out_dir.empty()) {
      const std::string stem = a.out_dir + "/" + a.opt.workload + "-seed" +
                               std::to_string(a.opt.seed) + "-trace" +
                               (a.opt.trace ? "1" : "0");
      write_file(stem + ".json", meta + "\n" + result + "\n");
      if (a.opt.trace) {
        write_file(stem + ".ledger.txt", r.ledger);
        write_file(stem + ".spans.jsonl", spans_jsonl(r));
      }
    }
    for (const auto& f : r.failures) std::fprintf(stderr, "FAILED %s\n", f.c_str());
    if (a.opt.trace) std::printf("%s\n", r.ledger.c_str());
    std::printf("%s\n%s\n", meta.c_str(), result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
