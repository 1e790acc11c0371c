// The repository benchmark (see README.md in this directory).
//
// Runs one named workload per invocation over the simulator's two execution
// paths — the execution-driven TPC-H path (ExperimentRunner::run_cells) and
// the replay path (sim::replay_batched) — and prints its metrics as one JSON
// object on the last line of standard output.
//
//   --trace 0  end-to-end metrics, measured with tracing off, repeating the
//              workload for --seconds and reporting medians.
//   --trace 1  per-layer metrics: one untraced run, then the same work
//              composed by hand from each module's public functions with a
//              span around every call into a layer. The traced run must
//              reproduce the untraced run's simulated counters exactly.
//
// Every simulated output is checked: query answers against tpch::oracle,
// counters against the values recorded for the default seed
// (expected/<workload>.json), replay counters across shard counts, and
// traced against untraced counters. A failed check counts its operation (one simulated
// cell or stream) as failed.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "os/scheduler.hpp"
#include "sim/batch.hpp"
#include "sim/machine_configs.hpp"
#include "sim/refstream.hpp"
#include "sim/sample/sampler.hpp"
#include "tpch/oracle.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace dss;
using Clock = std::chrono::steady_clock;

constexpr u64 kDefaultSeed = 42;
constexpr u32 kDefaultScale = 16;
constexpr u64 kDefaultRecords = 2'000'000;
/// Threads of the replay pool, at most. Two of a 4-CPU host: with all four
/// busy, a parallel wall time is set by whichever thread the host preempts,
/// and run_s moved by a quarter across seeds.
constexpr u32 kMaxJobs = 2;
/// Set-up is repeated this many times per run and its median reported.
constexpr u32 kSetupReps = 5;
/// The CI sampling schedule (N=500 K=40 W=500).
constexpr sim::SampleSchedule kCiSchedule{500, 40, 500};
/// Replay-path settings of the replay_shard workload.
constexpr u32 kReplayShards = 4;
constexpr u64 kEpochRecords = 2000;
constexpr u32 kStreamProcs = 4;
/// References per stream timed by the per-reference machine loops.
constexpr std::size_t kPerRefPrefix = std::size_t{1} << 19;

const char* const kWorkloads[] = {"q21_origin8", "scan_8p", "q21_sampled",
                                  "replay_shard"};

// ---------------------------------------------------------------- CLI ---

struct Options {
  std::string workload;
  u64 seed = kDefaultSeed;
  u64 seconds = 10;
  bool trace = false;
  u32 scale = kDefaultScale;
  u64 records = kDefaultRecords;
  std::string expected;   ///< directory of counters recorded for seed 42
  bool record = false;    ///< rewrite this workload's recorded counters
  std::string spans_out;  ///< --trace 1: write the span log here

  [[nodiscard]] bool default_inputs() const {
    return seed == kDefaultSeed && scale == kDefaultScale &&
           records == kDefaultRecords;
  }
};

constexpr const char* kUsage =
    "usage: dss_perfbench --workload NAME [--seed N] [--seconds N]\n"
    "                     [--trace 0|1] [--scale N] [--records N]\n"
    "                     [--expected DIR] [--record] [--spans-out FILE]\n"
    "workloads: q21_origin8 scan_8p q21_sampled replay_shard\n";

[[noreturn]] void usage_error(const std::string& msg) {
  if (!msg.empty()) std::cerr << "dss_perfbench: " << msg << "\n";
  std::cerr << kUsage;
  std::exit(2);
}

u64 parse_u64(const std::string& flag, const std::string& v, u64 lo,
              u64 hi) {
  u64 x = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc() || end != v.data() + v.size() || x < lo || x > hi) {
    usage_error(flag + " expects an integer in [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "], got '" + v + "'");
  }
  return x;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") usage_error("");
    if (a == "--record") {
      o.record = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("unknown flag or missing value: " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = parse_u64(a, v, 0, ~u64{0});
    } else if (a == "--seconds") {
      o.seconds = parse_u64(a, v, 1, 3600);
    } else if (a == "--trace") {
      o.trace = parse_u64(a, v, 0, 1) == 1;
    } else if (a == "--scale") {
      o.scale = static_cast<u32>(parse_u64(a, v, 1, 4096));
    } else if (a == "--records") {
      o.records = parse_u64(a, v, 1000, u64{1} << 26);
    } else if (a == "--expected") {
      o.expected = v;
    } else if (a == "--spans-out") {
      o.spans_out = v;
    } else {
      usage_error("unknown flag: " + a);
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads)) {
    usage_error(o.workload.empty() ? "--workload is required"
                                   : "unknown workload: " + o.workload);
  }
  if (o.record && (o.expected.empty() || !o.default_inputs())) {
    usage_error("--record needs --expected and the default seed, scale "
                "and records");
  }
  return o;
}

// ------------------------------------------------------------- timing ---

double wall_now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// User + system CPU of the whole process (every thread).
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Wall and CPU time of each operation (cell or stream) over the timed
/// repeats. run_s is the sum over operations of each one's median: a host
/// stall that slows a few operations of one repeat is discarded, not folded
/// into that repeat's total.
class OpTimes {
 public:
  explicit OpTimes(std::size_t ops) : wall_(ops), cpu_(ops) {}

  template <typename Fn>
  auto time(std::size_t op, Fn&& fn) {
    const double c0 = cpu_now();
    const double t0 = wall_now();
    auto result = fn();
    wall_[op].push_back(wall_now() - t0);
    cpu_[op].push_back(cpu_now() - c0);
    return result;
  }

  [[nodiscard]] double run_s() const { return sum_of_medians(wall_); }
  [[nodiscard]] double cpu_s() const { return sum_of_medians(cpu_); }
  [[nodiscard]] double repeats() const {
    return static_cast<double>(wall_[0].size());
  }

 private:
  static double sum_of_medians(const std::vector<std::vector<double>>& v) {
    double sum = 0;
    for (const auto& op : v) sum += median(op);
    return sum;
  }
  std::vector<std::vector<double>> wall_;
  std::vector<std::vector<double>> cpu_;
};

/// Threads the benchmark may use: the CPUs this process may run on,
/// capped at kMaxJobs so a run does the same work on any host.
u32 bench_jobs() {
  cpu_set_t set;
  CPU_ZERO(&set);
  u32 n = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    n = static_cast<u32>(std::max(1, CPU_COUNT(&set)));
  }
  return std::min(n, kMaxJobs);
}

/// In-memory span log: name, start, end and parent of every traced call,
/// written out when the benchmark ends.
class SpanLog {
 public:
  i32 begin(std::string name, i32 parent) {
    const double t = wall_now() - t0_;
    spans_.push_back({std::move(name), t, t, parent});
    return static_cast<i32>(spans_.size() - 1);
  }
  /// Close span `id`; returns its duration in seconds.
  double end(i32 id) {
    const double t = wall_now() - t0_;
    spans_[id].end = t;
    return t - spans_[id].start;
  }
  /// Run `fn` inside a span; returns the span's duration.
  template <typename Fn>
  double time(std::string name, i32 parent, Fn&& fn) {
    const i32 id = begin(std::move(name), parent);
    fn();
    return end(id);
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}",
                    s.start, s.end, s.parent);
      out << "  {\"id\": " << i << ", \"name\": \""
          << util::json_escape(s.name) << buf
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write span log " + path);
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    i32 parent;
  };
  double t0_ = wall_now();
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- checks ---

/// Named simulated values of one cell or stream, compared bit-for-bit.
using Fingerprint = std::vector<std::pair<std::string, double>>;

Fingerprint fingerprint(const perf::Counters& c) {
  auto d = [](u64 v) { return static_cast<double>(v); };
  return {{"cycles", d(c.cycles)},
          {"instructions", d(c.instructions)},
          {"spin_cycles", d(c.spin_cycles)},
          {"loads", d(c.loads)},
          {"stores", d(c.stores)},
          {"atomics", d(c.atomics)},
          {"l1d_misses", d(c.l1d_misses)},
          {"l2d_misses", d(c.l2d_misses)},
          {"dirty_misses", d(c.dirty_misses)},
          {"cache_interventions", d(c.cache_interventions)},
          {"invalidations_recv", d(c.invalidations_recv)},
          {"upgrades", d(c.upgrades)},
          {"writebacks", d(c.writebacks)},
          {"migratory_transfers", d(c.migratory_transfers)},
          {"tlb_misses", d(c.tlb_misses)},
          {"mem_requests", d(c.mem_requests)},
          {"mem_latency_cycles", d(c.mem_latency_cycles)},
          {"remote_accesses", d(c.remote_accesses)},
          {"vol_ctx_switches", d(c.vol_ctx_switches)},
          {"invol_ctx_switches", d(c.invol_ctx_switches)},
          {"select_sleeps", d(c.select_sleeps)},
          {"lock_acquires", d(c.lock_acquires)},
          {"lock_collisions", d(c.lock_collisions)},
          {"buffer_pins", d(c.buffer_pins)},
          {"tuples_scanned", d(c.tuples_scanned)},
          {"index_descents", d(c.index_descents)},
          {"stack_mem_stall", d(c.stack.mem_stall())},
          {"l2_miss_communication", d(c.l2_miss_causes.communication())}};
}

/// A one-trial cell: its summed counters, memory latency, simulated wall
/// and, when sampled, the sampler's accounting and CPI confidence.
Fingerprint fingerprint(const core::RunResult& r) {
  Fingerprint f = fingerprint(r.mean);
  f.emplace_back("avg_mem_latency", r.avg_mem_latency);
  f.emplace_back("wall_seconds", r.wall_seconds);
  if (r.sampled) {
    f.emplace_back("sample_total_refs", static_cast<double>(r.sample_total_refs));
    f.emplace_back("sample_detailed_refs",
                   static_cast<double>(r.sample_detailed_refs));
    f.emplace_back("sample_windows", static_cast<double>(r.sample_windows));
    f.emplace_back("ci_cpi", r.ci_cpi);
  }
  return f;
}

/// Differences between two fingerprints, as readable lines (empty: equal).
std::vector<std::string> diff(const Fingerprint& got, const Fingerprint& want,
                              const std::string& what) {
  std::vector<std::string> out;
  if (got.size() != want.size()) {
    out.push_back(what + ": " + std::to_string(got.size()) + " values vs " +
                  std::to_string(want.size()));
    return out;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != want[i].first || got[i].second != want[i].second) {
      char buf[160];
      std::snprintf(buf, sizeof buf, ": %s = %.17g, expected %s = %.17g",
                    got[i].first.c_str(), got[i].second,
                    want[i].first.c_str(), want[i].second);
      out.push_back(what + buf);
    }
  }
  return out;
}

/// Counts operations attempted and failed; prints every failed check.
struct Ledger {
  u64 attempted = 0;
  u64 failed = 0;

  void op(const std::string& what, const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const auto& p : problems) {
      std::cerr << "CHECK FAILED [" << what << "] " << p << "\n";
    }
  }
};

/// Counters recorded for the default inputs: expected/<workload>.json maps
/// each operation's name to its fingerprint.
class Expected {
 public:
  Expected(const std::string& dir, const std::string& workload, bool active,
           bool record)
      : path_(dir + "/" + workload + ".json"), active_(active), record_(record) {
    if (!active_ || record_) return;
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    if (!in) throw std::runtime_error("cannot read " + path_);
    doc_ = util::json_parse(ss.str());
  }

  /// Problems with `got` as the recorded values of operation `op`.
  std::vector<std::string> check(const std::string& op, const Fingerprint& got) {
    if (!active_) return {};
    if (record_) {
      recorded_.emplace(op, got);
      return {};
    }
    const util::Json* rec = doc_.get(op);
    if (rec == nullptr || !rec->is_object()) {
      return {"no recorded values for " + op + " in " + path_};
    }
    Fingerprint want;
    for (const auto& [name, _] : got) {
      const util::Json* v = rec->get(name);
      want.emplace_back(name, v != nullptr && v->is_number() ? v->as_number()
                                                             : std::nan(""));
    }
    return diff(got, want, "recorded " + op);
  }

  /// --record: write every operation checked in this run.
  void save() const {
    if (!record_) return;
    std::ofstream out(path_);
    out << "{";
    const char* sep = "\n";
    for (const auto& [op, f] : recorded_) {
      out << sep << "  \"" << op << "\": {";
      for (std::size_t j = 0; j < f.size(); ++j) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", f[j].second);
        out << (j ? ", \"" : "\"") << f[j].first << "\": " << buf;
      }
      out << "}";
      sep = ",\n";
    }
    out << "\n}\n";
    if (!out) throw std::runtime_error("cannot write " + path_);
  }

 private:
  std::string path_;
  bool active_;
  bool record_;
  util::Json doc_;
  std::map<std::string, Fingerprint> recorded_;
};

// ------------------------------------------------------------- report ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every per-layer metric of the traced run. A layer the workload does not
/// call reports 0 (see README.md for which workload exercises which layer).
struct Layers {
  double build_s = 0;       ///< tpch::build_database
  double step_s = 0;        ///< sum of QueryRun::step
  double steps = 0;
  double prewarm_s = 0;     ///< db::DbRuntime::prewarm_all
  double sched_self_s = 0;  ///< Scheduler::run_all minus its steps
  perf::Counters sim;       ///< simulated counters, summed over operations
  double access_s = 0;      ///< estimated time inside MachineSim::access
  double access_ns = 0;     ///< per access() call, fresh machine
  double warm_ns = 0;       ///< per warm_access() call, fresh machine
  double avg_mem_latency = 0;
  double detail_frac = 0;
  double windows = 0;
  double cpi_err_pct = 0;
  double compile_s = 0;     ///< sim::compile_trace
  double replay_s = 0;      ///< replay_batched, shards 4, compile cached
  double replay1_s = 0;     ///< the same at shards 1
  double barrier_s = 0;     ///< the same with pipeline=false
  double access_batch_ns = 0;
  double warm_batch_ns = 0;
  double cpu_util = 0;
  double overhead_s = 0;    ///< traced wall minus untraced run_s
};

std::vector<Metric> layer_metrics(const Layers& l) {
  const perf::Counters& c = l.sim;
  const double refs = static_cast<double>(c.loads + c.stores + c.atomics);
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto d = [](u64 v) { return static_cast<double>(v); };
  return {
      {"tpch.build_s", l.build_s, "s"},
      {"tpch.step_s", l.step_s, "s"},
      {"tpch.steps", l.steps, "count"},
      {"db.prewarm_s", l.prewarm_s, "s"},
      {"db.exec_self_s", l.step_s > 0 ? l.step_s - l.access_s : 0.0, "s"},
      {"db.lock_acquires", d(c.lock_acquires), "count"},
      {"db.lock_collision_frac", frac(d(c.lock_collisions), d(c.lock_acquires)), "ratio"},
      {"db.select_sleeps", d(c.select_sleeps), "count"},
      {"db.buffer_pins", d(c.buffer_pins), "count"},
      {"db.index_descents", d(c.index_descents), "count"},
      {"db.tuples_scanned", d(c.tuples_scanned), "count"},
      {"os.sched_self_s", l.sched_self_s, "s"},
      {"os.vol_ctx", d(c.vol_ctx_switches), "count"},
      {"os.invol_ctx", d(c.invol_ctx_switches), "count"},
      {"sim.refs", refs, "count"},
      {"sim.write_frac", frac(d(c.stores + c.atomics), refs), "ratio"},
      {"sim.access_s", l.access_s, "s"},
      {"sim.access_ns_per_ref", l.access_ns, "ns"},
      {"sim.warm_ns_per_ref", l.warm_ns, "ns"},
      {"sim.l1_hit_frac", refs > 0 ? 1.0 - d(c.l1d_misses) / refs : 0.0, "ratio"},
      {"sim.l2d_misses", d(c.l2d_misses), "count"},
      {"sim.remote_frac", frac(d(c.remote_accesses), d(c.mem_requests)), "ratio"},
      {"sim.interventions", d(c.cache_interventions), "count"},
      {"sim.invalidations", d(c.invalidations_recv), "count"},
      {"sim.avg_mem_latency", l.avg_mem_latency, "cycles"},
      {"sample.detail_frac", l.detail_frac, "ratio"},
      {"sample.windows", l.windows, "count"},
      {"sample.cpi_err_pct", l.cpi_err_pct, "%"},
      {"batch.compile_s", l.compile_s, "s"},
      {"batch.replay_s", l.replay_s, "s"},
      {"batch.replay1_s", l.replay1_s, "s"},
      {"batch.barrier_s", l.barrier_s, "s"},
      {"batch.access_batch_ns_per_ref", l.access_batch_ns, "ns"},
      {"batch.warm_batch_ns_per_ref", l.warm_batch_ns, "ns"},
      {"batch.cpu_util", l.cpu_util, "ratio"},
      {"trace.overhead_s", l.overhead_s, "s"},
  };
}

/// Prints a readable table, then the result object as the last line.
void report(const Options& o, const Ledger& ledger,
            const std::vector<Metric>& json_metrics,
            const std::vector<Metric>& extra) {
  std::printf("workload %s  seed %llu  trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  for (const auto* list : {&json_metrics, &extra}) {
    for (const Metric& m : *list) {
      std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("  %-30s %18.6f ratio (%llu of %llu operations)\n", "fail_frac",
              static_cast<double>(ledger.failed) /
                  static_cast<double>(std::max<u64>(ledger.attempted, 1)),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.attempted));
  std::string js = "{\"correct\": ";
  js += ledger.failed == 0 && ledger.attempted > 0 ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(ledger.attempted);
  js += ", \"failed\": " + std::to_string(ledger.failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < json_metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", json_metrics[i].value);
    js += (i ? ", \"" : "\"") + json_metrics[i].name + "\": {\"value\": " +
          buf + ", \"unit\": \"" + json_metrics[i].unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------- TPC-H workloads ---

std::string cell_name(const core::ExperimentConfig& c) {
  return std::string(perf::platform_name(c.platform)) + "/" +
         tpch::query_name(c.query) + "/" + std::to_string(c.nproc) + "p" +
         (c.sample.enabled() ? "/sampled" : "");
}

std::vector<core::ExperimentConfig> tpch_cells(const Options& o) {
  auto cell = [&](perf::Platform p, tpch::QueryId q, bool sampled) {
    core::ExperimentConfig c;
    c.platform = p;
    c.query = q;
    c.nproc = 8;
    c.trials = 1;
    c.scale = core::ScaleConfig{o.scale};
    c.seed = o.seed;
    if (sampled) c.sample = kCiSchedule;
    return c;
  };
  using perf::Platform;
  using tpch::QueryId;
  if (o.workload == "q21_origin8") {
    return {cell(Platform::Origin2000, QueryId::Q21, false)};
  }
  if (o.workload == "q21_sampled") {
    return {cell(Platform::Origin2000, QueryId::Q21, true)};
  }
  return {cell(Platform::VClass, QueryId::Q6, false),
          cell(Platform::Origin2000, QueryId::Q6, false),
          cell(Platform::VClass, QueryId::Q12, false),
          cell(Platform::Origin2000, QueryId::Q12, false)};
}

tpch::QueryParams query_params(const core::ExperimentConfig& c) {
  tpch::QueryParams p;
  p.workmem_arena_bytes = c.scale.arena_bytes();
  return p;
}

std::vector<tpch::ResultRow> oracle_rows(const db::Database& dbase,
                                         const core::ExperimentConfig& c) {
  const tpch::QueryParams p = query_params(c);
  switch (c.query) {
    case tpch::QueryId::Q6: return {{"revenue", {tpch::oracle::q6(dbase, p)}}};
    case tpch::QueryId::Q12: return tpch::oracle::q12(dbase, p);
    case tpch::QueryId::Q21: return tpch::oracle::q21(dbase, p);
    default: throw std::logic_error("no oracle wired for this query");
  }
}

std::vector<std::string> check_answer(const std::vector<tpch::ResultRow>& got,
                                      const std::vector<tpch::ResultRow>& want) {
  if (got.size() != want.size()) {
    return {"answer has " + std::to_string(got.size()) + " rows, oracle " +
            std::to_string(want.size())};
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    bool ok = got[i].key == want[i].key &&
              got[i].vals.size() == want[i].vals.size();
    for (std::size_t j = 0; ok && j < want[i].vals.size(); ++j) {
      const double w = want[i].vals[j];
      ok = std::fabs(got[i].vals[j] - w) <= 1e-6 * (1.0 + std::fabs(w));
    }
    if (!ok) {
      return {"answer row " + std::to_string(i) + " (" + got[i].key +
              ") differs from the oracle (" + want[i].key + ")"};
    }
  }
  return {};
}

/// Keeps a uniformly spread subset of a reference stream in bounded
/// memory. References arrive in fixed blocks; every `stride_`-th block is
/// kept, and when the buffer fills, every other kept block is dropped and
/// the stride doubles. Replaying the kept blocks estimates the per-reference
/// cost of the whole stream without holding it.
class RefCapture {
 public:
  static constexpr std::size_t kBlock = 1 << 16;
  static constexpr std::size_t kCap = std::size_t{1} << 21;

  void add(u32 proc, sim::AccessKind kind, sim::SimAddr addr, u32 len) {
    if (block_ % stride_ == 0) {
      refs_.push_back({addr, proc, (len << 2) | static_cast<u32>(kind)});
    }
    ++seen_;
    if (++in_block_ < kBlock) return;
    in_block_ = 0;
    ++block_;
    if (refs_.size() >= kCap) {
      // Kept block k started at block k * stride; keep the even k.
      const std::size_t kept = refs_.size() / kBlock;
      for (std::size_t k = 2; k < kept; k += 2) {
        std::copy_n(refs_.begin() + static_cast<std::ptrdiff_t>(k * kBlock),
                    kBlock,
                    refs_.begin() + static_cast<std::ptrdiff_t>(k / 2 * kBlock));
      }
      refs_.resize((kept + 1) / 2 * kBlock);
      stride_ *= 2;
    }
  }

  [[nodiscard]] const std::vector<sim::BatchRef>& refs() const { return refs_; }
  [[nodiscard]] u64 seen() const { return seen_; }

 private:
  std::vector<sim::BatchRef> refs_;
  u64 seen_ = 0;
  u64 block_ = 0;
  u64 stride_ = 1;
  std::size_t in_block_ = 0;
};

sim::AccessKind kind_of(const sim::BatchRef& r) {
  return static_cast<sim::AccessKind>(r.len_kind & 3);
}

/// The MachineSim entry points timed per reference.
enum class MachinePath { kAccess, kWarmAccess, kAccessBatch, kWarmBatch };

/// Host nanoseconds per reference of `path` over `refs`, on a fresh machine
/// with counters attached.
double machine_ns_per_ref(const sim::MachineConfig& mc,
                          const std::vector<sim::BatchRef>& refs,
                          MachinePath path) {
  if (refs.empty()) return 0;
  sim::MachineSim m(mc);
  std::vector<perf::Counters> ctr(mc.num_processors);
  for (u32 p = 0; p < mc.num_processors; ++p) m.attach_counters(p, &ctr[p]);
  const double t0 = wall_now();
  switch (path) {
    case MachinePath::kAccess:
      for (const auto& r : refs) {
        (void)m.access(r.proc, kind_of(r), r.addr, r.len_kind >> 2, 0);
      }
      break;
    case MachinePath::kWarmAccess:
      for (const auto& r : refs) {
        m.warm_access(r.proc, kind_of(r), r.addr, r.len_kind >> 2);
      }
      break;
    case MachinePath::kAccessBatch: m.access_batch(refs.data(), refs.size()); break;
    case MachinePath::kWarmBatch: m.warm_batch(refs.data(), refs.size()); break;
  }
  return 1e9 * (wall_now() - t0) / static_cast<double>(refs.size());
}

/// One hand-composed trial (trial 0 of `cfg`) with a span around each call
/// into a layer. Mirrors ExperimentRunner::run_trial step for step, so its
/// counters must equal run_cells' for the same one-trial cell.
struct TracedTrial {
  core::RunResult result;
  double prewarm_s = 0;
  double run_all_s = 0;
  double step_s = 0;
  u64 steps = 0;
  u64 detailed_calls = 0;  ///< access() calls on the detailed path
  u64 warm_calls = 0;      ///< access() calls sent to warm_access
  RefCapture capture;      ///< a bounded sample of the detailed calls
};

TracedTrial traced_trial(const db::Database& dbase,
                         const core::ExperimentConfig& cfg, SpanLog& spans,
                         i32 parent) {
  TracedTrial out;
  const i32 t = spans.begin("trial " + cell_name(cfg), parent);
  const sim::MachineConfig mc = sim::config_for(cfg.platform).scaled(cfg.scale.denom);
  sim::MachineSim machine(mc);
  std::optional<sim::RefSampler> sampler;
  if (cfg.sample.enabled()) {
    sampler.emplace(cfg.sample, cfg.nproc);
    machine.set_sampler(&*sampler);
  }
  RefCapture& capture = out.capture;
  machine.set_trace_hook([&capture](u32 p, sim::AccessKind k, sim::SimAddr a,
                                    u32 len) { capture.add(p, k, a, len); });

  db::RuntimeConfig rc;
  rc.pool_frames = cfg.scale.pool_frames();
  rc.workmem_arena_bytes = cfg.scale.arena_bytes();
  db::DbRuntime rt(dbase, rc);
  machine.set_addr_classes(&rt.addr_classes());
  out.prewarm_s = spans.time("db::DbRuntime::prewarm_all", t, [&] { rt.prewarm_all(); });

  const tpch::QueryParams params = query_params(cfg);
  os::Scheduler sched;
  std::vector<std::unique_ptr<tpch::QueryRun>> queries;
  Rng jitter(cfg.seed * 7919 + 0);
  for (u32 i = 0; i < cfg.nproc; ++i) {
    auto proc = std::make_unique<os::Process>(machine, i);
    proc->set_timeslice(static_cast<u64>(
        static_cast<double>(mc.timeslice_cycles) /
        (1.0 + 0.05 * (cfg.nproc - 1))));
    proc->instr(static_cast<u64>(jitter.uniform(0, 40'000)));
    auto q = tpch::make_query(cfg.query, rt, *proc, params);
    tpch::QueryRun* qp = q.get();
    queries.push_back(std::move(q));
    // Step calls are too many to log one span each (Q21 makes millions);
    // their time and count are folded into the trial's totals.
    sched.add(std::move(proc), [qp, &out](os::Process& p) {
      const auto s0 = Clock::now();
      const bool done = qp->step(p);
      out.step_s += std::chrono::duration<double>(Clock::now() - s0).count();
      ++out.steps;
      return done;
    });
  }
  out.run_all_s = spans.time("os::Scheduler::run_all", t, [&] { sched.run_all(); });
  machine.set_trace_hook(nullptr);

  // The reduction run_cells applies to a one-trial cell.
  core::RunResult& r = out.result;
  double ci_cycles = 0;
  if (sampler) {
    std::vector<perf::Counters*> procs;
    for (std::size_t i = 0; i < sched.job_count(); ++i) {
      procs.push_back(&sched.process(i).counters());
    }
    const sim::ExecSampleSummary s = sampler->finalize(machine, procs);
    r.sampled = true;
    r.sample_total_refs = s.total_refs;
    r.sample_detailed_refs = s.detailed_refs;
    r.sample_windows = s.windows;
    ci_cycles = s.stall_per_ref.ci_half * static_cast<double>(s.total_refs);
    out.warm_calls = s.total_refs - capture.seen();
  }
  double lat_sum = 0;
  double wall = 0;
  for (std::size_t i = 0; i < sched.job_count(); ++i) {
    r.mean += sched.process(i).counters();
    lat_sum += sched.process(i).counters().avg_mem_latency();
    wall = std::max(wall, static_cast<double>(sched.process(i).now()) /
                              (mc.clock_mhz * 1e6));
  }
  r.avg_mem_latency = lat_sum / static_cast<double>(sched.job_count());
  r.wall_seconds = wall / 1;
  r.cpi = r.mean.cpi();
  r.ci_cpi = std::sqrt(ci_cycles * ci_cycles) /
             static_cast<double>(r.mean.instructions);
  r.query_result = queries[0]->result();
  out.detailed_calls = capture.seen();
  spans.end(t);
  return out;
}

void run_tpch(const Options& o, Ledger& ledger, Expected& expected) {
  const std::vector<core::ExperimentConfig> cells = tpch_cells(o);
  // Cells run one after another: a parallel wall is set by whichever
  // runner thread the host preempts. On scan_8p's four cells over two
  // threads, run_s moved by a quarter across seeds while cpu_s moved by a
  // tenth.
  const u32 jobs = 1;
  const core::ScaleConfig scale{o.scale};

  auto check_cell = [&](const std::string& tag,
                        const core::ExperimentConfig& cfg,
                        const core::RunResult& r,
                        const std::vector<tpch::ResultRow>& oracle,
                        const Fingerprint* same_as) {
    std::vector<std::string> problems = check_answer(r.query_result, oracle);
    const Fingerprint f = fingerprint(r);
    if (same_as != nullptr) {
      for (auto& p : diff(f, *same_as, "vs first run")) problems.push_back(p);
    }
    for (auto& p : expected.check(cell_name(cfg), f)) problems.push_back(p);
    ledger.op(tag + " " + cell_name(cfg), problems);
  };

  if (!o.trace) {
    // Set-up: the TPC-H build inside ExperimentRunner's constructor.
    std::vector<double> setups;
    std::unique_ptr<core::ExperimentRunner> runner;
    for (u32 i = 0; i < kSetupReps; ++i) {
      runner.reset();
      const double t0 = wall_now();
      runner = std::make_unique<core::ExperimentRunner>(scale, o.seed, jobs);
      setups.push_back(wall_now() - t0);
    }
    std::vector<std::vector<tpch::ResultRow>> oracles;
    for (const auto& c : cells) oracles.push_back(oracle_rows(runner->database(), c));

    OpTimes times(cells.size());
    std::vector<Fingerprint> first;
    double refs = 0;
    const double start = wall_now();
    do {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const core::RunResult r =
            times.time(i, [&] { return runner->run_cells({&cells[i], 1}).front(); });
        const bool is_first = first.size() == i;
        if (is_first) {
          first.push_back(fingerprint(r));
          // Per-L1-line references; on a sampled cell, the sampler's
          // whole-stream estimate.
          refs += static_cast<double>(r.mean.loads + r.mean.stores + r.mean.atomics);
        }
        check_cell("run", cells[i], r, oracles[i], is_first ? nullptr : &first[i]);
      }
    } while (wall_now() - start < static_cast<double>(o.seconds));

    const double run_s = times.run_s();
    report(o, ledger,
           {{"setup_s", median(setups), "s"},
            {"run_s", run_s, "s"},
            {"sim_mrefs_per_s", refs / run_s / 1e6, "Mref/s"},
            {"cpu_s", times.cpu_s(), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"}},
           {{"repeats", times.repeats(), "count"}});
    return;
  }

  // Traced run. The untraced run_cells goes first, on a runner of its own;
  // the traced trials then rebuild the database through tpch::build_database
  // and compose each trial from the modules' public functions.
  SpanLog spans;
  const i32 root = spans.begin("benchmark " + o.workload, -1);
  std::unique_ptr<core::ExperimentRunner> runner;
  spans.time("core::ExperimentRunner (set-up)", root, [&] {
    runner = std::make_unique<core::ExperimentRunner>(scale, o.seed, jobs);
  });
  std::vector<std::vector<tpch::ResultRow>> oracles;
  for (const auto& c : cells) oracles.push_back(oracle_rows(runner->database(), c));
  std::vector<core::RunResult> untraced;
  const double untraced_s = spans.time("core::ExperimentRunner::run_cells", root,
                                       [&] { untraced = runner->run_cells(cells); });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    check_cell("untraced", cells[i], untraced[i], oracles[i], nullptr);
  }

  std::unique_ptr<db::Database> dbase;
  tpch::GenConfig gen;
  gen.scale_factor = scale.scale_factor();
  gen.seed = o.seed;
  const double build_s = spans.time("tpch::build_database", root,
                                    [&] { dbase = tpch::build_database(gen); });
  std::vector<TracedTrial> trials(cells.size());
  const i32 traced = spans.begin("traced trials", root);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    trials[i] = traced_trial(*dbase, cells[i], spans, traced);
  }
  const double traced_wall = spans.end(traced);

  Layers l;
  l.build_s = build_s;
  double calls = 0;
  u64 detailed = 0, total = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const TracedTrial& tr = trials[i];
    std::vector<std::string> problems =
        diff(fingerprint(tr.result), fingerprint(untraced[i]), "traced vs untraced");
    for (auto& p : check_answer(tr.result.query_result, oracles[i])) problems.push_back(p);
    ledger.op("traced " + cell_name(cells[i]), problems);

    l.sim += tr.result.mean;
    l.prewarm_s += tr.prewarm_s;
    l.step_s += tr.step_s;
    l.steps += static_cast<double>(tr.steps);
    l.sched_self_s += tr.run_all_s - tr.step_s;
    // Per-call cost of the machine over the captured sample, on fresh
    // machines; averaged over the cells, weighted by their calls.
    const sim::MachineConfig mc =
        sim::config_for(cells[i].platform).scaled(cells[i].scale.denom);
    auto per_ref = [&](const char* name, MachinePath path) {
      double ns = 0;
      spans.time(name + (" " + cell_name(cells[i])), root,
                 [&] { ns = machine_ns_per_ref(mc, tr.capture.refs(), path); });
      return ns;
    };
    const double access_ns = per_ref("sim::MachineSim::access", MachinePath::kAccess);
    const double warm_ns =
        per_ref("sim::MachineSim::warm_access", MachinePath::kWarmAccess);
    l.access_s += 1e-9 * (access_ns * static_cast<double>(tr.detailed_calls) +
                          warm_ns * static_cast<double>(tr.warm_calls));
    const double n = static_cast<double>(tr.detailed_calls);
    calls += n;
    l.access_ns += access_ns * n;
    l.warm_ns += warm_ns * n;
    l.avg_mem_latency += tr.result.avg_mem_latency / static_cast<double>(cells.size());
    l.windows += static_cast<double>(tr.result.sample_windows);
    detailed += tr.result.sample_detailed_refs;
    total += tr.result.sample_total_refs;
  }
  spans.end(root);
  l.access_ns /= calls;
  l.warm_ns /= calls;
  if (cells[0].sample.enabled()) {
    l.detail_frac = static_cast<double>(detailed) / static_cast<double>(total);
    // Sampling error: the sampled CPI against a full-detail run of the
    // same cell (untimed, and checked like every other cell).
    core::ExperimentConfig full = cells[0];
    full.sample = {};
    const core::RunResult r = runner->run(full);
    check_cell("full-detail", full, r, oracles[0], nullptr);
    l.cpi_err_pct = 100.0 * std::fabs(untraced[0].cpi - r.cpi) / r.cpi;
  }
  l.overhead_s = traced_wall - untraced_s;
  if (!o.spans_out.empty()) spans.write(o.spans_out);
  report(o, ledger, layer_metrics(l),
         {{"trace.traced_wall_s", traced_wall, "s"},
          {"trace.untraced_run_s", untraced_s, "s"}});
}

// ------------------------------------------------ replay workload ---

struct Stream {
  perf::Platform platform;
  sim::MachineConfig mc;
  sim::RefPattern pattern;
  const std::vector<sim::TraceRecord>* records;

  [[nodiscard]] std::string name() const {
    return std::string(perf::platform_name(platform)) + "/" +
           sim::ref_pattern_name(pattern);
  }
};

perf::Counters total(const std::vector<perf::Counters>& per_proc) {
  perf::Counters t;
  for (const auto& c : per_proc) t += c;
  return t;
}

/// Per-processor counters of two replays, compared bit-for-bit.
std::vector<std::string> diff_replays(const std::vector<perf::Counters>& got,
                                      const std::vector<perf::Counters>& want,
                                      const std::string& what) {
  if (got.size() != want.size()) return {what + ": processor counts differ"};
  std::vector<std::string> out;
  for (std::size_t p = 0; p < got.size(); ++p) {
    for (auto& d : diff(fingerprint(got[p]), fingerprint(want[p]),
                        what + " proc " + std::to_string(p))) {
      out.push_back(d);
    }
  }
  return out;
}

void run_replay(const Options& o, Ledger& ledger, Expected& expected) {
  // Inputs: the five synthetic patterns, generated from the seed.
  std::vector<std::vector<sim::TraceRecord>> inputs;
  std::vector<Stream> streams;
  for (u32 pi = 0; pi < sim::kNumRefPatterns; ++pi) {
    sim::RefStreamConfig rc;
    rc.pattern = static_cast<sim::RefPattern>(pi);
    rc.nproc = kStreamProcs;
    rc.records = o.records;
    rc.seed = o.seed;
    inputs.push_back(sim::make_refstream(rc));
  }
  for (const perf::Platform p : {perf::Platform::VClass, perf::Platform::Origin2000}) {
    for (u32 pi = 0; pi < sim::kNumRefPatterns; ++pi) {
      streams.push_back({p, sim::config_for(p).scaled(kDefaultScale),
                         static_cast<sim::RefPattern>(pi), &inputs[pi]});
    }
  }

  // Set-up: start the replay pool and compile every stream into the
  // compile cache, as a caller replaying a stream more than once does.
  // Starting the pool alone took 10-50 us, and its median over 201 starts
  // still differed twofold between processes: too unsteady to gate on.
  std::vector<double> setups;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<sim::TraceCompileCache> cache;
  for (u32 i = 0; i < (o.trace ? 1 : kSetupReps); ++i) {
    cache.reset();
    pool.reset();
    const double t0 = wall_now();
    pool = std::make_unique<ThreadPool>(bench_jobs());
    cache = std::make_unique<sim::TraceCompileCache>();
    for (const Stream& s : streams) {
      (void)cache->get(s.mc, *s.records, kEpochRecords, pool.get());
    }
    setups.push_back(wall_now() - t0);
  }

  auto options = [&](u32 shards, bool pipeline) {
    sim::ReplayOptions ro;
    ro.shards = shards;
    ro.epoch_records = kEpochRecords;
    ro.pool = pool.get();
    ro.compile_cache = cache.get();
    ro.pipeline = pipeline;
    return ro;
  };
  const sim::ReplayOptions timed = options(kReplayShards, true);

  // One timed run: every stream through replay_batched with its compile
  // cached (routing, shard replay and epoch merge).
  auto replay = [&](std::size_t i) {
    return sim::replay_batched(streams[i].mc, *streams[i].records, timed);
  };
  auto replay_all = [&] {
    std::vector<std::vector<perf::Counters>> res(streams.size());
    for (std::size_t i = 0; i < streams.size(); ++i) res[i] = replay(i);
    return res;
  };

  if (!o.trace) {
    // An untimed first run faults in the replay buffers and gives the
    // reference counters: recorded values, and shard bit-identity against
    // the same streams at shards 1.
    const auto first = replay_all();
    double line_refs = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const perf::Counters t = total(first[i]);
      line_refs += static_cast<double>(t.loads + t.stores + t.atomics);
      const auto one = sim::replay_batched(streams[i].mc, *streams[i].records,
                                           options(1, true));
      std::vector<std::string> problems =
          diff_replays(first[i], one, "shards 4 vs shards 1");
      for (auto& p : expected.check(streams[i].name(), fingerprint(t))) {
        problems.push_back(p);
      }
      ledger.op("replay " + streams[i].name(), problems);
    }

    OpTimes times(streams.size());
    const double start = wall_now();
    do {
      for (std::size_t i = 0; i < streams.size(); ++i) {
        const auto res = times.time(i, [&] { return replay(i); });
        ledger.op("replay " + streams[i].name(),
                  diff_replays(res, first[i], "vs first run"));
      }
    } while (wall_now() - start < static_cast<double>(o.seconds));
    const double run_s = times.run_s();
    report(o, ledger,
           {{"setup_s", median(setups), "s"},
            {"run_s", run_s, "s"},
            {"sim_mrefs_per_s", line_refs / run_s / 1e6, "Mref/s"},
            {"cpu_s", times.cpu_s(), "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"}},
           {{"repeats", times.repeats(), "count"}});
    return;
  }

  // Traced run: one untraced timed run, then each stream's replay split
  // into its stages with a span around every call.
  SpanLog spans;
  const i32 root = spans.begin("benchmark " + o.workload, -1);
  spans.time("warm-up run", root, [&] { (void)replay_all(); });
  std::vector<std::vector<perf::Counters>> untraced;
  const double c0 = cpu_now();
  const double untraced_s = spans.time("sim::replay_batched (untraced)", root,
                                       [&] { untraced = replay_all(); });
  const double untraced_cpu = cpu_now() - c0;

  Layers l;
  l.cpu_util = untraced_cpu / (untraced_s * static_cast<double>(pool->size()));
  double traced_wall = 0, refs = 0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const Stream& s = streams[i];
    const i32 st = spans.begin("stream " + s.name(), root);
    sim::CompiledTrace ct;
    const double compile_s = spans.time("sim::compile_trace", st, [&] {
      ct = sim::compile_trace(s.mc, *s.records, kEpochRecords, pool.get());
    });
    std::vector<perf::Counters> four, one, barrier;
    const double replay_s = spans.time("sim::replay_batched shards=4", st, [&] {
      four = sim::replay_batched(s.mc, *s.records, timed);
    });
    l.replay1_s += spans.time("sim::replay_batched shards=1", st, [&] {
      one = sim::replay_batched(s.mc, *s.records, options(1, true));
    });
    l.barrier_s += spans.time("sim::replay_batched pipeline=false", st, [&] {
      barrier = sim::replay_batched(s.mc, *s.records, options(kReplayShards, false));
    });
    std::vector<std::string> problems = diff_replays(four, untraced[i], "traced vs untraced");
    for (auto& p : diff_replays(one, four, "shards 1 vs shards 4")) problems.push_back(p);
    for (auto& p : diff_replays(barrier, four, "barrier vs pipelined")) problems.push_back(p);
    for (auto& p : expected.check(s.name(), fingerprint(total(four)))) {
      problems.push_back(p);
    }
    ledger.op("traced " + s.name(), problems);

    // Per-reference costs of one machine over a prefix of the compiled
    // references.
    ct.refs.resize(std::min<std::size_t>(ct.refs.size(), kPerRefPrefix));
    const double n = static_cast<double>(ct.refs.size());
    auto per_ref = [&](const char* name, MachinePath path, double& sum) {
      spans.time(name, st, [&] { sum += n * machine_ns_per_ref(s.mc, ct.refs, path); });
    };
    per_ref("sim::MachineSim::access_batch", MachinePath::kAccessBatch, l.access_batch_ns);
    per_ref("sim::MachineSim::warm_batch", MachinePath::kWarmBatch, l.warm_batch_ns);
    per_ref("sim::MachineSim::access", MachinePath::kAccess, l.access_ns);
    per_ref("sim::MachineSim::warm_access", MachinePath::kWarmAccess, l.warm_ns);
    spans.end(st);
    refs += n;
    l.compile_s += compile_s;
    l.replay_s += replay_s;
    traced_wall += replay_s;
    l.sim += total(four);
  }
  spans.end(root);
  l.access_batch_ns /= refs;
  l.warm_batch_ns /= refs;
  l.access_ns /= refs;
  l.warm_ns /= refs;
  l.access_s = 1e-9 * l.access_ns * static_cast<double>(
      l.sim.loads + l.sim.stores + l.sim.atomics);
  l.avg_mem_latency = l.sim.avg_mem_latency();
  l.overhead_s = traced_wall - untraced_s;
  if (!o.spans_out.empty()) spans.write(o.spans_out);
  report(o, ledger, layer_metrics(l),
         {{"trace.traced_wall_s", traced_wall, "s"},
          {"trace.untraced_run_s", untraced_s, "s"}});
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  // One malloc arena for every thread: with per-thread arenas the peak RSS
  // depends on which pool thread happened to run which piece of work.
  mallopt(M_ARENA_MAX, 1);
  try {
    Ledger ledger;
    Expected expected(o.expected, o.workload,
                      !o.expected.empty() && o.default_inputs(), o.record);
    if (o.workload == "replay_shard") {
      run_replay(o, ledger, expected);
    } else {
      run_tpch(o, ledger, expected);
    }
    expected.save();
  } catch (const std::exception& e) {
    std::cerr << "dss_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
