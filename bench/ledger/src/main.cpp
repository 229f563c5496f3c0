// ledger — the per-layer cost ledger.
//
//   ledger [--seed N] [--quick] [--out FILE]               every workload
//   ledger --workload W --seed N --seconds S --trace 0|1   one workload; the
//                                                          last stdout line
//                                                          is a JSON result
//   ledger --list                                          metric catalogue
//   ledger --calibrate N [--seed N]                        rewrite the bounds
//                                                          in ./BENCHMARK.json
//
// Every repetition runs in a fresh single-threaded child process (this
// binary re-executed with --child), so peak RSS is the child's own and no
// repetition inherits another's heap. End-to-end metrics come from
// untraced children; one traced child per workload supplies the per-layer
// numbers and runs the stage benches.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalogue.h"
#include "common/rng.h"
#include "probe.h"
#include "stages.h"
#include "workloads.h"

namespace ledger {
namespace {

using Record = std::map<std::string, std::string>;

double num(const Record& r, const std::string& key) {
  const auto it = r.find(key);
  return it == r.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

/// First and third quartile as Python's statistics.quantiles(v, n=4)
/// (exclusive method) computes them; needs at least two values.
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld < 2) return {v.empty() ? 0 : v[0], v.empty() ? 0 : v[0]};
  const long m = ld + 1;
  double q[2];
  for (long i = 1; i <= 3; i += 2) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i / 2] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1]};
}

double iqr_share(const std::vector<double>& v) {
  const double med = median(v);
  const auto [q1, q3] = quartiles(v);
  return med != 0 ? (q3 - q1) / med : 0;
}

// --- child processes -----------------------------------------------------------

struct Child {
  Record record;
  double peak_rss_mb = 0;
  bool ok = false;
};

std::string self_exe() {
  char buf[PATH_MAX];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "ledger";
}

Child spawn(const std::vector<std::string>& args) {
  static const std::string exe = self_exe();
  Child child;
  int fds[2];
  if (pipe(fds) != 0) return child;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return child;
  }
  if (pid == 0) {
    // A child never outlives the ledger: killing the ledger (a timeout, say)
    // kills the repetition it is waiting on too.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0 || (n < 0 && errno == EINTR)) {
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  child.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  child.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) eol = out.size();
    const std::string line = out.substr(pos, eol - pos);
    const std::size_t sp = line.find(' ');
    if (sp != std::string::npos) child.record[line.substr(0, sp)] = line.substr(sp + 1);
    pos = eol + 1;
  }
  return child;
}

// --- one workload ----------------------------------------------------------------

struct Plan {
  std::vector<std::uint64_t> seeds;  ///< one scenario per seed, each pass
  int min_passes = 3;
  double seconds = 0;  ///< add passes while one more still fits in this
  bool traced = true;  ///< plus one traced child on seeds.front()
  bool quick = false;
  std::string spans_path;
};

struct StageRow {
  std::string name;
  double ns = 0;
  double calls = 0;
  double share = 0;
};

struct Outcome {
  Workload workload;  ///< as built for seeds.front()
  std::vector<std::uint64_t> seeds;
  int passes = 0;
  int checks_run = 0;
  int checks_failed = 0;
  std::vector<std::string> failures;
  std::map<std::uint64_t, std::string> digests;
  std::map<std::string, std::vector<double>> samples;  ///< end-to-end
  std::map<std::string, double> values;                ///< every metric
  std::vector<StageRow> stages;                        ///< ranked
};

void tally(Outcome& o, const Child& c, const char* role) {
  if (!c.ok || c.record.empty()) {
    ++o.checks_run;
    ++o.checks_failed;
    o.failures.push_back(std::string(role) + " child failed");
    return;
  }
  for (const auto& [key, value] : c.record) {
    if (key.rfind("check.", 0) != 0) continue;
    ++o.checks_run;
    if (value != "1") {
      ++o.checks_failed;
      o.failures.push_back(key + " (" + role + ")");
    }
  }
}

Child spawn_run(const Outcome& o, std::uint64_t seed, const Plan& plan,
                bool traced) {
  std::vector<std::string> args = {"--child", traced ? "trace" : "measure",
                                   "--workload", o.workload.name, "--seed",
                                   std::to_string(seed)};
  if (plan.quick) args.push_back("--quick");
  if (traced && !plan.spans_path.empty()) {
    args.push_back("--spans");
    args.push_back(plan.spans_path);
  }
  return spawn(args);
}

Outcome run_workload(const std::string& name, const Plan& plan) {
  Outcome o;
  o.workload = *make_workload(name, plan.seeds.front(), plan.quick);
  o.seeds = plan.seeds;
  std::map<std::uint64_t, std::vector<Child>> runs;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  while (o.passes < plan.min_passes ||
         elapsed() * (o.passes + 1) / o.passes <= plan.seconds) {
    for (std::uint64_t seed : plan.seeds) {
      runs[seed].push_back(spawn_run(o, seed, plan, false));
      tally(o, runs[seed].back(), "measure");
    }
    ++o.passes;
  }
  std::optional<Child> traced;
  if (plan.traced) {
    traced = spawn_run(o, plan.seeds.front(), plan, true);
    tally(o, *traced, "trace");
  }

  // Byte-identical exports from every child of one seed: reruns are
  // deterministic and the traced run's proxies leave the simulation alone.
  for (const auto& [seed, children] : runs) {
    std::vector<const Record*> records;
    for (const Child& c : children) records.push_back(&c.record);
    if (traced && seed == plan.seeds.front()) records.push_back(&traced->record);
    std::set<std::string> digests;
    for (const Record* r : records) {
      digests.insert(r->count("digest") ? r->at("digest") : "");
    }
    o.digests[seed] = *digests.begin();
    if (records.size() < 2) continue;  // nothing to compare
    ++o.checks_run;
    if (digests.size() != 1 || digests.begin()->empty()) {
      ++o.checks_failed;
      o.failures.push_back("digest differs across children of seed " +
                           std::to_string(seed));
    }
  }

  // Work-like metrics average over the seeds (each seed's median over
  // passes), so a seed that happens to cost more moves them by its share
  // only; set-up time and memory are medians over every child.
  std::map<std::string, std::vector<double>> per_seed;
  for (const auto& [seed, children] : runs) {
    std::map<std::string, std::vector<double>> mine;
    for (const Child& c : children) {
      for (const char* key : {"run_s", "run_allocs", "setup_allocs"}) {
        mine[key].push_back(num(c.record, key));
        o.samples[key].push_back(num(c.record, key));
      }
      for (const char* key : {"setup_s", "workload.build_s", "workload.drain_s"}) {
        o.samples[key].push_back(num(c.record, key));
      }
      o.samples["peak_rss_mb"].push_back(c.peak_rss_mb);
    }
    for (const auto& [key, v] : mine) per_seed[key].push_back(median(v));
  }
  for (const auto& [key, v] : o.samples) o.values[key] = median(v);
  for (const auto& [key, v] : per_seed) {
    double sum = 0;
    for (double x : v) sum += x;
    o.values[key] = sum / static_cast<double>(v.size());
  }
  o.values["error_rate"] =
      static_cast<double>(o.checks_failed) / static_cast<double>(o.checks_run);

  // Per-layer numbers describe the first seed's scenario: simulated counts
  // from any of its children, host-time numbers from the traced one.
  const std::vector<Child>& first = runs.at(plan.seeds.front());
  const Record& rec = traced ? traced->record : first.front().record;
  for (const Metric& m : metric_catalogue()) {
    if (m.layer != "end_to_end" && rec.count(m.name) && !o.values.count(m.name)) {
      o.values[m.name] = num(rec, m.name);
    }
  }
  std::vector<double> first_run_s;
  for (const Child& c : first) first_run_s.push_back(num(c.record, "run_s"));
  const double run_s = median(first_run_s);
  o.values["sim.events_per_s"] = run_s > 0 ? o.values["sim.events"] / run_s : 0;
  if (traced) {
    const double traced_run_s = num(traced->record, "traced.run_s");
    o.values["trace.overhead_share"] =
        traced_run_s > 0 ? (traced_run_s - run_s) / traced_run_s : 0;
    double covered = 0;
    for (const char* name : kStageNames) {
      StageRow row;
      row.name = name;
      row.ns = num(traced->record, "stage." + row.name + ".ns");
      row.calls = num(traced->record, "stage." + row.name + ".calls");
      row.share = run_s > 0 ? row.ns * row.calls / 1e9 / run_s : 0;
      covered += row.share;
      o.values[row.name + ".share"] = row.share;
      o.stages.push_back(row);
    }
    std::sort(o.stages.begin(), o.stages.end(),
              [](const StageRow& a, const StageRow& b) { return a.share > b.share; });
    o.values["run.unattributed_share"] = 1.0 - covered;
  }
  return o;
}

// --- reporting ---------------------------------------------------------------------

std::string spec_strings_json(const Workload& w) {
  const auto& c = w.config;
  return "{\"topology\": " + json_string(c.fabric.topology.to_string()) +
         ", \"workload\": " +
         json_string(c.workload.enabled() ? c.workload.to_string() : "") +
         ", \"attack\": " +
         json_string(c.attack.enabled() ? c.attack.to_string() : "") + "}";
}

std::string seeds_text(const std::vector<std::uint64_t>& seeds) {
  std::string s;
  for (std::uint64_t seed : seeds) s += (s.empty() ? "" : ",") + std::to_string(seed);
  return s;
}

void print_outcome(const Outcome& o) {
  std::printf("\n== %s  seeds %s  %d pass%s  checks %d/%d passed\n",
              o.workload.name.c_str(), seeds_text(o.seeds).c_str(), o.passes,
              o.passes == 1 ? "" : "es", o.checks_run - o.checks_failed,
              o.checks_run);
  for (const std::string& f : o.failures) std::printf("   FAILED %s\n", f.c_str());
  std::printf("   %-34s %14s %10s  %s\n", "metric", "value", "iqr/med", "unit");
  for (const Metric& m : metric_catalogue()) {
    const auto it = o.values.find(m.name);
    if (it == o.values.end()) continue;
    const auto s = o.samples.find(m.name);
    char spread[16] = "";
    if (s != o.samples.end() && s->second.size() >= 2) {
      std::snprintf(spread, sizeof spread, "%.3f", iqr_share(s->second));
    }
    std::printf("   %-34s %14.6g %10s  %s\n", m.name.c_str(), it->second, spread,
                m.unit.c_str());
  }
  if (!o.stages.empty()) {
    std::printf("   ranked stages (share of run_s = ns/call x calls / run_s)\n");
    std::printf("   %-26s %12s %14s %8s\n", "stage", "ns/call", "calls", "share");
    for (const StageRow& r : o.stages) {
      std::printf("   %-26s %12.1f %14.0f %7.1f%%\n", r.name.c_str(), r.ns,
                  r.calls, 100 * r.share);
    }
    std::printf("   %-26s %12s %14s %7.1f%%\n", "run.unattributed", "", "",
                100 * o.values.at("run.unattributed_share"));
  }
}

std::string outcome_json(const Outcome& o) {
  char num_buf[40];
  const auto number = [&num_buf](double v) {
    std::snprintf(num_buf, sizeof num_buf, "%.9g", v);
    return std::string(num_buf);
  };
  std::string s = "    " + json_string(o.workload.name) + ": {\n";
  s += "      \"why\": " + json_string(std::string(workload_why(o.workload.name))) +
       ",\n";
  s += "      \"specs\": " + spec_strings_json(o.workload) + ",\n";
  s += "      \"passes\": " + std::to_string(o.passes) + ",\n";
  s += "      \"digests\": {";
  for (auto it = o.digests.begin(); it != o.digests.end(); ++it) {
    s += (it == o.digests.begin() ? "" : ", ") +
         json_string(std::to_string(it->first)) + ": " + json_string(it->second);
  }
  s += "},\n";
  s += "      \"checks\": {\"run\": " + std::to_string(o.checks_run) +
       ", \"failed\": " + std::to_string(o.checks_failed) + "},\n";
  s += "      \"metrics\": {";
  bool first = true;
  for (const Metric& m : metric_catalogue()) {
    const auto it = o.values.find(m.name);
    if (it == o.values.end()) continue;
    s += std::string(first ? "\n" : ",\n") + "        " + json_string(m.name) +
         ": {\"value\": " + number(it->second) + ", \"unit\": " +
         json_string(m.unit);
    const auto smp = o.samples.find(m.name);
    if (smp != o.samples.end()) {
      s += ", \"samples\": [";
      for (std::size_t i = 0; i < smp->second.size(); ++i) {
        s += (i ? ", " : "") + number(smp->second[i]);
      }
      s += "]";
    }
    s += "}";
    first = false;
  }
  s += "\n      },\n      \"stages\": [";
  for (std::size_t i = 0; i < o.stages.size(); ++i) {
    const StageRow& r = o.stages[i];
    s += std::string(i ? ",\n" : "\n") + "        {\"name\": " + json_string(r.name) +
         ", \"ns_per_call\": " + number(r.ns) + ", \"calls\": " + number(r.calls) +
         ", \"share\": " + number(r.share) + "}";
  }
  s += "\n      ]\n    }";
  return s;
}

bool write_ledger_json(const std::string& path, const std::vector<Outcome>& all,
                       std::uint64_t seed, bool quick) {
  std::string s = "{\n  \"provenance\": {\n";
  s += "    \"git_rev\": " + json_string(LEDGER_GIT_REV) + ",\n";
  s += "    \"compiler\": " + json_string(LEDGER_COMPILER) + ",\n";
  s += "    \"build_type\": " + json_string(LEDGER_BUILD_TYPE) + ",\n";
  s += "    \"seed\": " + std::to_string(seed) + ",\n";
  s += std::string("    \"quick\": ") + (quick ? "true" : "false") + "\n  },\n";
  s += "  \"workloads\": {\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    s += outcome_json(all[i]) + (i + 1 < all.size() ? ",\n" : "\n");
  }
  s += "  }\n}\n";
  std::ofstream out(path);
  out << s;
  return static_cast<bool>(out);
}

/// A benchmark run's result line: end-to-end metrics untraced, per-layer
/// metrics traced.
void print_result_line(const Outcome& o, bool trace) {
  std::string metrics;
  for (const Metric& m : metric_catalogue()) {
    if (!m.in_benchmark_file || (m.layer == "end_to_end") == trace) continue;
    const auto it = o.values.find(m.name);
    const double v = it != o.values.end() ? it->second : 0.0;
    char entry[200];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    metrics += entry;
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
              o.checks_failed == 0 ? "true" : "false", o.checks_run,
              o.checks_failed, metrics.c_str());
}

void print_list() {
  std::printf("%-36s %-8s %-11s %-7s %s\n", "metric", "unit", "layer", "better",
              "should move");
  for (const Metric& m : metric_catalogue()) {
    std::printf("%-36s %-8s %-11s %-7s %s\n", m.name.c_str(), m.unit.c_str(),
                m.layer.c_str(), m.lower_is_better ? "lower" : "higher",
                m.moves.c_str());
  }
}

/// One benchmark run of `name`: untraced, K scenarios whose seeds are the
/// first K draws of Rng(seed), for the whole budget; traced, one untraced
/// and one traced child on the first of them. Drawing the seeds, rather
/// than counting up from `seed`, keeps neighbouring runs' seed sets
/// unrelated: set-up allocations, for one, step with the seed's magnitude.
Plan benchmark_plan(const std::string& name, std::uint64_t seed,
                    double seconds, bool traced) {
  Plan plan;
  ibsec::Rng draw(seed);
  for (int i = 0; i < (traced ? 1 : seeds_per_run(name)); ++i) {
    plan.seeds.push_back(draw.next_u64());
  }
  plan.min_passes = 1;
  plan.seconds = traced ? 0 : seconds;
  plan.traced = traced;
  return plan;
}

/// --calibrate: N benchmark runs per workload on seeds seed .. seed+N-1,
/// then a bound per end-to-end metric from the worst workload's spread.
int calibrate(int n, std::uint64_t seed) {
  std::map<std::string, double> bounds;
  std::printf("%-13s %-13s %14s %9s %7s\n", "workload", "metric", "median",
              "iqr/med", "bound");
  bool errors = false;
  for (const std::string& name : workload_names()) {
    std::map<std::string, std::vector<double>> samples;
    for (int i = 0; i < n; ++i) {
      const Outcome o = run_workload(
          name, benchmark_plan(name, seed + static_cast<std::uint64_t>(i),
                            kRunSeconds, false));
      errors = errors || o.checks_failed != 0;
      for (const Metric& m : metric_catalogue()) {
        if (m.layer == "end_to_end" && m.in_benchmark_file) {
          samples[m.name].push_back(o.values.at(m.name));
        }
      }
    }
    for (const auto& [key, v] : samples) {
      const double spread = iqr_share(v);
      // Timings and peak RSS get max(5%, 3x spread), allocation counts
      // max(1%, 3x spread): three times the spread keeps it under a third
      // of the bound. setup_s always carries the largest bound allowed.
      const bool exact = find_metric(key)->unit == "count";
      double bound = std::clamp(std::ceil(300 * spread) / 100,
                                exact ? 0.01 : 0.05, kMaxBound);
      if (key == "setup_s") bound = kMaxBound;
      bounds[key] = std::max(bounds[key], bound);
      std::printf("%-13s %-13s %14.6g %9.4f %7.2f\n", name.c_str(), key.c_str(),
                  median(v), spread, bound);
    }
  }
  std::printf("error_rate bound: 0 absolute (%s)\n",
              errors ? "VIOLATED: a check failed" : "held");
  std::ofstream("BENCHMARK.json") << benchmark_json(bounds);
  std::printf("wrote BENCHMARK.json\n");
  return errors ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ledger [--seed N] [--quick] [--out FILE]\n"
               "       ledger --workload NAME --seed N --seconds S --trace 0|1\n"
               "       ledger --list | --calibrate N [--seed N]\n");
  return 2;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  std::uint64_t seed = 2005;
  bool quick = false;
  bool list = false;
  int calibrate_n = 0;
  int trace = -1;
  double seconds = -1;
  std::string workload_name;
  std::string out_path;
  std::string child_mode;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--calibrate" && has_value) {
      calibrate_n = std::atoi(argv[++i]);
    } else if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--child" && has_value) {
      child_mode = argv[++i];
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else {
      return usage();
    }
  }

  if (!child_mode.empty()) {
    const auto w = make_workload(workload_name, seed, quick);
    if (!w) return usage();
    return run_child(*w, child_mode == "trace", quick, spans_path);
  }
  if (list) {
    print_list();
    return 0;
  }
  if (calibrate_n > 0) return calibrate(std::max(2, calibrate_n), seed);

  const bool single = !workload_name.empty();
  if (single && (!make_workload(workload_name, seed, quick) || seconds < 0 ||
                 (trace != 0 && trace != 1))) {
    return usage();
  }
  const std::vector<std::string> names =
      single ? std::vector<std::string>{workload_name} : workload_names();

  std::printf("ledger  rev %s  %s %s  seed %llu%s\n", LEDGER_GIT_REV,
              LEDGER_COMPILER, LEDGER_BUILD_TYPE,
              static_cast<unsigned long long>(seed), quick ? "  (quick)" : "");
  std::vector<Outcome> all;
  for (const std::string& name : names) {
    Plan plan;
    if (single) {
      plan = benchmark_plan(name, seed, seconds, trace == 1);
    } else {
      plan.seeds = {seed};
      plan.min_passes = quick ? 1 : 3;
    }
    plan.quick = quick;
    if (!out_path.empty()) {
      const std::size_t dot = out_path.rfind(".json");
      plan.spans_path = out_path.substr(0, dot) + "." + name + ".spans.json";
    }
    const Workload w = *make_workload(name, plan.seeds.front(), quick);
    std::printf("-- %s: %s\n   specs %s\n", name.c_str(),
                std::string(workload_why(name)).c_str(),
                spec_strings_json(w).c_str());
    std::fflush(stdout);
    all.push_back(run_workload(name, plan));
    print_outcome(all.back());
  }

  int failed = 0;
  for (const Outcome& o : all) failed += o.checks_failed;
  if (!out_path.empty()) {
    if (!write_ledger_json(out_path, all, seed, quick)) {
      std::fprintf(stderr, "ledger: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out_path.c_str());
  }
  if (single) {
    print_result_line(all.front(), trace == 1);
    return 0;
  }
  return failed == 0 ? 0 : 1;
}
