// End-to-end benchmark driver for the FLoc simulators (see README.md).
//
//   perfbench --workload tree-cbr|tree-churn|inet-localized --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--tamper-digest]
//
// One process runs one workload, single-threaded, repeating whole instances
// of it under the one seed while another one still fits in `--seconds`.
// Every instance is checked (see check_tree / check_shares and the digest and
// reference comparisons); a failed check fails its operation. The last stdout
// line is the JSON result.
//
// --trace 0 reports the end-to-end metrics from untraced instances. Their
// times are CPU seconds of this thread at a fixed reference clock speed (see
// probe_ns_per_iter), so neither time in which the thread did not run nor a
// host that lowered the core clock is charged to the program.
// --trace 1 alternates untraced and traced instances and reports the
// per-layer ledger of the median traced instance. All layers are timed from
// outside, through the public profiler hooks of Simulator, Link and
// FlocQueue (tree workloads) or around the public TickSim calls (inet).
// Exclusive rows come from the hooks' fixed nesting:
//   sim.dispatch > link.enqueue > floc.enqueue > {floc.cap_verify, floc.control}
//   sim.dispatch > link.dequeue > floc.dequeue
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "inetsim/inet_experiment.h"
#include "inetsim/tick_sim.h"
#include "telemetry/alloc_counter.h"
#include "telemetry/profiler.h"
#include "topology/bot_distribution.h"
#include "topology/skitter_gen.h"
#include "topology/tree_scenario.h"
#include "util/seed.h"

namespace {

using namespace floc;
using telemetry::clock_ns;

double secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// CPU time consumed by the calling thread, in nanoseconds.
std::uint64_t cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
  }
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Host clock-speed probe. On a shared host the core clock moves by tens of
// percent over minutes (the turbo budget is shared with other tenants), and
// CPU time moves with it. The probe times one chain of dependent
// single-cycle integer operations that never touches memory, so its time per
// iteration is proportional to the clock period. Scaling an instance's CPU
// time by kRefProbeNsPerIter / (probe ns per iteration, averaged over probes
// just before and just after the instance) gives CPU seconds at a fixed
// reference clock: clock changes cancel, changes in the program's own work
// do not.
constexpr std::uint64_t kProbeIters = 20'000'000;
constexpr double kRefProbeNsPerIter = 2.5;

double probe_ns_per_iter() {
  const std::uint64_t c0 = cpu_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t i = 0; i < kProbeIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(cpu_ns() - c0) / static_cast<double>(kProbeIters);
}

double clock_scale(double probe_before, double probe_after) {
  return 2.0 * kRefProbeNsPerIter / (probe_before + probe_after);
}

// At least this many instances per run, so a run always has a median and
// the digest check always has a second instance to compare.
constexpr int kMinInstances = 3;
// Set-up-only repetitions per measured instance, for a steadier setup_s.
constexpr int kExtraSetups = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool tamper_digest = false;

  static Args parse(int argc, char** argv) {
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
      const std::string k = argv[i];
      const bool has_value = i + 1 < argc;
      if (k == "--workload" && has_value) {
        a.workload = argv[++i];
        have_workload = true;
      } else if (k == "--seed" && has_value) {
        a.seed = std::stoull(argv[++i]);
      } else if (k == "--seconds" && has_value) {
        a.seconds = std::stod(argv[++i]);
      } else if (k == "--trace" && has_value) {
        a.trace = std::string(argv[++i]) == "1";
      } else if (k == "--size" && has_value) {
        const std::string v = argv[++i];
        if (v != "full" && v != "tiny") throw std::invalid_argument("--size " + v);
        a.tiny = v == "tiny";
      } else if (k == "--tamper-digest") {
        a.tamper_digest = true;
      } else {
        throw std::invalid_argument("unknown argument " + k);
      }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    return a;
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Index of the median element (lower median for even counts).
template <typename T, typename Key>
std::size_t median_index(const std::vector<T>& v, Key key) {
  std::vector<std::size_t> idx(v.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return key(v[a]) < key(v[b]); });
  return idx[(idx.size() - 1) / 2];
}

// Peak resident set of this process image. VmHWM, unlike getrusage's
// ru_maxrss, restarts at exec, so a large parent (the Python runner) does
// not leak into the figure.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot open /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib <= 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

// Order-sensitive hash of a run's simulated outcome.
struct Digest {
  std::uint64_t h = 0x6a09e667f3bcc908ULL;
  void add(std::uint64_t v) { h = mix64(h ^ v) + 0x9E3779B97F4A7C15ULL; }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

// Result line: every metric with its unit, counts printed as integers.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    add_raw(name, buf, unit);
  }
  void add_count(const std::string& name, std::uint64_t value) {
    add_raw(name, std::to_string(value), "count");
  }
  void print(bool correct, int attempted, int failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, body_.c_str());
    std::fflush(stdout);
  }

 private:
  void add_raw(const std::string& name, const std::string& value,
               const char* unit) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
             unit + "\"}";
  }
  std::string body_;
};

// Outcome bookkeeping shared by both workload families.
struct Tally {
  int attempted = 0;
  int failed = 0;
  void op(const std::string& failure) {
    ++attempted;
    if (!failure.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());
    }
  }
};

// ======================================================================
// Tree workloads (packet-level simulator)
// ======================================================================

TreeScenarioConfig tree_config(const Args& a) {
  TreeScenarioConfig cfg;
  cfg.scheme = DefenseScheme::kFloc;
  cfg.seed = a.seed;
  if (a.workload == "tree-cbr") {
    // Fig. 6(b): CBR flood, FLoc in flooding mode on the target link.
    cfg.attack = AttackType::kCbr;
    cfg.scale = a.tiny ? 0.05 : 0.25;
    cfg.duration = a.tiny ? 8.0 : 24.0;
    cfg.measure_start = a.tiny ? 5.0 : 12.0;
  } else {
    // Identity churn against bounded tables, as in ablation_state_exhaust's
    // bounded churn row.
    cfg.attack = AttackType::kStateExhaust;
    cfg.state_churn_per_sec = 100.0;
    cfg.state_identity_pool = 1 << 10;
    cfg.floc.origin_budget.capacity = 96;
    cfg.floc.origin_budget.policy = EvictionPolicy::kLru;
    cfg.floc.flow_budget.capacity = 48;
    cfg.floc.offense_budget.capacity = 64;
    cfg.floc.offender_budget.capacity = 64;
    cfg.floc.enable_overload_mode = true;
    cfg.floc.backoff_release = true;
    cfg.floc.enable_blacklist = true;
    cfg.scale = a.tiny ? 0.05 : 0.12;
    cfg.duration = a.tiny ? 8.0 : 12.0;
    cfg.measure_start = a.tiny ? 5.0 : 8.0;
  }
  cfg.attack_start = a.tiny ? 2.0 : 5.0;
  cfg.measure_end = cfg.duration;
  return cfg;
}

// Profiler section totals of one traced instance.
struct TreeLayers {
  std::uint64_t dispatch_ns = 0, link_enq_ns = 0, link_deq_ns = 0;
  std::uint64_t floc_enq_ns = 0, floc_deq_ns = 0, cap_ns = 0, ctrl_ns = 0;
  std::uint64_t floc_enq_calls = 0, cap_calls = 0, ctrl_calls = 0;
};

struct TreeRun {
  double setup_s = 0.0, run_s = 0.0, wall_s = 0.0;  // wall clock
  double setup_cpu_s = 0.0, cpu_s = 0.0;            // thread CPU time
  double clock_scale = 1.0;  // to the reference clock, set by the caller
  std::uint64_t events = 0, admissions = 0, drops = 0, pkts_sent = 0;
  std::uint64_t evictions = 0, allocs = 0;
  double legit_share = 0.0, attack_share = 0.0;
  bool traced = false;
  TreeLayers layers;
  std::uint64_t digest = 0;
  std::string failure;  // empty: every check passed

  std::uint64_t offered() const { return admissions + drops; }
  double ref_cpu_s() const { return cpu_s * clock_scale; }
  double pkts_per_ref_cpu_s() const {
    return static_cast<double>(offered()) / ref_cpu_s();
  }
};

// Exclusive ledger of a traced tree instance, in seconds. The rows
// partition [ctor start, run() end] except the profiler attach step, which
// is what ledger.residual shows.
constexpr const char* kTreeLedgerRows[] = {
    "tree.setup_s",       "netsim.engine.self_s",   "callbacks.other.self_s",
    "link.target.self_s", "floc.admit.self_s",      "floc.cap_verify.self_s",
    "floc.control.self_s", "floc.dequeue.self_s"};
constexpr std::size_t kAdmitRow = 4;

std::array<double, 8> tree_ledger(const TreeRun& r) {
  const TreeLayers& l = r.layers;
  return {r.setup_s,
          r.run_s - secs(l.dispatch_ns),
          secs(l.dispatch_ns) - secs(l.link_enq_ns) - secs(l.link_deq_ns),
          secs(l.link_enq_ns) + secs(l.link_deq_ns) - secs(l.floc_enq_ns) -
              secs(l.floc_deq_ns),
          secs(l.floc_enq_ns) - secs(l.cap_ns) - secs(l.ctrl_ns),
          secs(l.cap_ns),
          secs(l.ctrl_ns),
          secs(l.floc_deq_ns)};
}

// Output checks on one finished instance (everything but the digest).
std::string check_tree(TreeScenario& s, const TreeScenarioConfig& cfg,
                       std::uint64_t bytes_at_measure_start) {
  QueueDisc& q = s.bottleneck_queue();
  std::string why;
  if (!q.audit(s.sim().now(), &why)) return "target queue audit: " + why;
  const Link& target = *s.target_link();
  if (target.packets_sent() + q.packet_count() > q.admissions()) {
    return "target link sent+queued exceeds admissions";
  }
  const TreeScenario::ClassBandwidth cb = s.class_bandwidth();
  const double bw = s.scaled_target_bw();
  const double shares[] = {cb.legit_legit_bps / bw, cb.legit_attack_bps / bw,
                           cb.attack_bps / bw};
  double total = 0.0;
  for (double x : shares) {
    if (!(x >= 0.0 && x <= 1.0)) return "class share outside [0, 1]";
    total += x;
  }
  // Sinks count bytes after the target link; allow what the link can have
  // in flight (one propagation delay plus one packet) at the window start.
  const double window = cfg.measure_end - cfg.measure_start;
  const double utilization =
      static_cast<double>(target.bytes_sent() - bytes_at_measure_start) * 8.0 /
      (window * bw);
  const double slack = (cfg.hop_delay + 1500 * 8.0 / bw) / window;
  if (total > utilization + slack) return "class shares exceed utilization";
  return {};
}

TreeRun run_tree(const TreeScenarioConfig& cfg, bool traced) {
  TreeRun r;
  r.traced = traced;
  telemetry::ScopedAllocCount allocs;
  const std::uint64_t c0 = cpu_ns();
  const std::uint64_t t0 = clock_ns();
  TreeScenario s(cfg);
  const std::uint64_t t1 = clock_ns();
  const std::uint64_t c1 = cpu_ns();

  telemetry::Profiler prof;
  telemetry::Profiler::Section *dispatch = nullptr, *link_enq = nullptr,
                               *link_deq = nullptr;
  if (traced) {
    dispatch = prof.section("sim.dispatch");
    link_enq = prof.section("link.enqueue");
    link_deq = prof.section("link.dequeue");
    s.sim().set_profile_section(dispatch);
    s.target_link()->set_profiler(link_enq, link_deq);
    s.floc_queue()->set_profiler(&prof, "floc");
  }
  std::uint64_t bytes_at_start = 0;
  Link* target = s.target_link();
  s.sim().schedule_at(cfg.measure_start,
                      [&] { bytes_at_start = target->bytes_sent(); });

  const std::uint64_t t2 = clock_ns();
  s.run();
  const std::uint64_t t3 = clock_ns();
  const std::uint64_t c3 = cpu_ns();
  r.allocs = allocs.allocs();

  r.setup_cpu_s = secs(c1 - c0);
  r.cpu_s = secs(c3 - c0);
  r.setup_s = secs(t1 - t0);
  r.run_s = secs(t3 - t2);
  r.wall_s = secs(t3 - t0);
  const QueueDisc& q = s.bottleneck_queue();
  r.events = s.sim().events_processed();
  r.admissions = q.admissions();
  r.drops = q.drops();
  r.pkts_sent = target->packets_sent();
  r.evictions = s.floc_queue()->state_evictions();
  const TreeScenario::ClassBandwidth cb = s.class_bandwidth();
  r.legit_share = cb.legit_legit_bps / s.scaled_target_bw();
  r.attack_share = cb.attack_bps / s.scaled_target_bw();
  if (traced) {
    TreeLayers& l = r.layers;
    l.dispatch_ns = dispatch->total_ns;
    l.link_enq_ns = link_enq->total_ns;
    l.link_deq_ns = link_deq->total_ns;
    const auto* fe = prof.section("floc.enqueue");
    const auto* fd = prof.section("floc.dequeue");
    const auto* cv = prof.section("floc.cap_verify");
    const auto* fc = prof.section("floc.control");
    l.floc_enq_ns = fe->total_ns;
    l.floc_deq_ns = fd->total_ns;
    l.cap_ns = cv->total_ns;
    l.ctrl_ns = fc->total_ns;
    l.floc_enq_calls = fe->calls;
    l.cap_calls = cv->calls;
    l.ctrl_calls = fc->calls;
  }

  Digest d;
  for (std::uint64_t v : {r.events, r.admissions, r.drops, r.pkts_sent,
                          r.evictions}) {
    d.add(v);
  }
  d.add(cb.legit_legit_bps);
  d.add(cb.legit_attack_bps);
  d.add(cb.attack_bps);
  r.digest = d.h;
  r.failure = check_tree(s, cfg, bytes_at_start);
  return r;
}

// Exact counts of a traced instance, which must repeat under one seed.
std::array<std::uint64_t, 5> exact_counts(const TreeRun& r) {
  return {r.events, r.layers.floc_enq_calls, r.layers.cap_calls,
          r.layers.ctrl_calls, r.allocs};
}

int run_tree_workload(const Args& a) {
  const TreeScenarioConfig cfg = tree_config(a);
  std::vector<TreeRun> runs;
  std::vector<double> setups;
  Tally tally;
  const std::uint64_t start = clock_ns();
  std::uint64_t last_ns = 0;  // length of the previous iteration
  double probe = probe_ns_per_iter();
  for (int i = 0; i < kMinInstances * (a.trace ? 2 : 1) ||
                  secs(clock_ns() - start + last_ns) < a.seconds;
       ++i) {
    const std::uint64_t iter_start = clock_ns();
    std::vector<double> iter_setups;
    for (int k = 0; k < kExtraSetups && !a.trace; ++k) {
      const std::uint64_t c0 = cpu_ns();
      TreeScenario s(cfg);
      iter_setups.push_back(secs(cpu_ns() - c0));
    }
    // Trace mode alternates untraced and traced instances.
    TreeRun r = run_tree(cfg, a.trace && i % 2 == 1);
    const double next_probe = probe_ns_per_iter();
    r.clock_scale = clock_scale(probe, next_probe);
    probe = next_probe;
    if (a.tamper_digest && i == 1) r.digest ^= 1;
    if (r.failure.empty() && !runs.empty()) {
      if (r.digest != runs.front().digest) {
        r.failure = "simulated-outcome digest differs from the first run";
      } else if (r.traced) {
        // Zero means the counting allocator (perfbench_counted) is absent.
        if (r.allocs == 0) r.failure = "allocation counter inactive";
        for (const TreeRun& prev : runs) {
          if (prev.traced && exact_counts(prev) != exact_counts(r)) {
            r.failure = "exact counts differ between traced runs";
          }
        }
        for (double row : tree_ledger(r)) {
          if (row < 0.0) r.failure = "negative exclusive ledger row";
        }
      }
    }
    tally.op(r.failure);
    std::fprintf(stderr,
                 "instance %d%s: ref cpu %.4f s, cpu %.4f s, wall %.4f s, "
                 "%llu events\n",
                 i, r.traced ? " (traced)" : "", r.ref_cpu_s(), r.cpu_s,
                 r.wall_s, static_cast<unsigned long long>(r.events));
    iter_setups.push_back(r.setup_cpu_s);
    for (double x : iter_setups) setups.push_back(x * r.clock_scale);
    runs.push_back(std::move(r));
    last_ns = clock_ns() - iter_start;
  }

  std::vector<TreeRun> plain, traced;
  for (const TreeRun& r : runs) (r.traced ? traced : plain).push_back(r);
  const std::size_t pm =
      median_index(plain, [](const TreeRun& r) { return r.wall_s; });
  const TreeRun& p = plain[pm];

  Report rep;
  if (!a.trace) {
    std::vector<double> cpus, rates;
    for (const TreeRun& r : plain) {
      cpus.push_back(r.ref_cpu_s());
      rates.push_back(r.pkts_per_ref_cpu_s());
    }
    rep.add("ref_cpu_s", median(cpus), "s");
    rep.add("setup_s", median(setups), "s");
    rep.add("pkts_per_ref_cpu_s", median(rates), "pkts/s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("legit_share", p.legit_share, "fraction");
    std::printf("%s seed=%llu: %zu instances, median ref cpu %.4f s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                plain.size(), median(cpus));
  } else {
    const TreeRun& t =
        traced[median_index(traced, [](const TreeRun& r) { return r.wall_s; })];
    const auto rows = tree_ledger(t);
    const double sum = std::accumulate(rows.begin(), rows.end(), 0.0);
    const TreeLayers& l = t.layers;
    const double residual = t.wall_s - sum;
    const double overhead = t.wall_s / p.wall_s;

    std::printf("ledger: %s seed=%llu, median of %zu traced instances\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                traced.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::printf("  %-24s %10.4f s %6.2f %%\n", kTreeLedgerRows[i], rows[i],
                  100.0 * rows[i] / t.wall_s);
    }
    std::printf("  %-24s %10.4f s\n", "sum of rows", sum);
    std::printf("  %-24s %10.4f s (ledger.residual %.6f s)\n", "traced wall",
                t.wall_s, residual);
    std::printf("  trace.overhead %.3fx (untraced wall %.4f s)\n", overhead,
                p.wall_s);

    for (std::size_t i = 0; i < rows.size(); ++i) {
      rep.add(kTreeLedgerRows[i], rows[i], "s");
    }
    rep.add_count("netsim.events", t.events);
    rep.add("netsim.ns_per_event",
            p.run_s * 1e9 / static_cast<double>(p.events), "ns");
    rep.add_count("link.target.pkts_sent", t.pkts_sent);
    rep.add_count("floc.enqueue.calls", l.floc_enq_calls);
    rep.add("floc.admit.ns_per_call",
            rows[kAdmitRow] * 1e9 / static_cast<double>(l.floc_enq_calls),
            "ns");
    rep.add("floc.admit_ratio",
            static_cast<double>(t.admissions) /
                static_cast<double>(l.floc_enq_calls),
            "ratio");
    rep.add_count("floc.cap_verify.calls", l.cap_calls);
    rep.add_count("floc.control.calls", l.ctrl_calls);
    rep.add_count("floc.state_evictions", t.evictions);
    rep.add_count("run.allocs", t.allocs);
    rep.add("run.allocs_per_kpkt",
            static_cast<double>(t.allocs) * 1000.0 /
                static_cast<double>(t.offered()),
            "allocs/kpkt");
    rep.add("attack_share", t.attack_share, "fraction");
    rep.add("trace.wall_s", t.wall_s, "s");
    rep.add("untraced.wall_s", p.wall_s, "s");
    rep.add("untraced.cpu_s", p.cpu_s, "s");
    rep.add("host.clock_scale", p.clock_scale, "ratio");
    rep.add("trace.overhead", overhead, "ratio");
    rep.add("ledger.residual", residual, "s");
    // Tick-simulator layers are not exercised by this workload.
    for (const char* n : {"inetsim.topology_s", "inetsim.placement_s",
                          "inetsim.tick_ctor_s"}) {
      rep.add(n, 0.0, "s");
    }
    for (const char* pol : {"nd", "ff", "na", "a-hi", "a-lo"}) {
      rep.add(std::string("inetsim.") + pol + ".run_s", 0.0, "s");
      rep.add_count(std::string("inetsim.") + pol + ".pkts", 0);
      rep.add(std::string("inetsim.") + pol + ".legit_share", 0.0, "fraction");
    }
  }
  rep.print(tally.failed == 0, tally.attempted, tally.failed);
  return 0;
}

// ======================================================================
// inet-localized (tick simulator)
// ======================================================================

constexpr int kPolicies = 5;
const char* const kPolicyKeys[kPolicies] = {"nd", "ff", "na", "a-hi", "a-lo"};

InetExperimentConfig inet_config(const Args& a) {
  InetExperimentConfig c;  // Fig. 13: f-root, 100 attack ASes, 30 % overlap
  c.preset = SkitterPreset::kFRoot;
  c.attack_ases = 100;
  c.legit_overlap = 0.3;
  c.scale = a.tiny ? 0.01 : 0.05;
  c.ticks = a.tiny ? 300 : 3000;
  c.seed = a.seed;
  return c;
}

// The world run_inet_experiment builds, rebuilt here from the public
// pieces so each piece can be timed. The formulas mirror
// src/inetsim/inet_experiment.cc; the check against run_inet_experiment's
// rows proves they still match.
SkitterConfig skitter_config(const InetExperimentConfig& c) {
  SkitterConfig s;
  s.preset = c.preset;
  s.as_count = std::max(300, static_cast<int>(2000 * std::sqrt(c.scale)));
  s.seed = c.seed;
  return s;
}

PlacementConfig placement_config(const InetExperimentConfig& c) {
  PlacementConfig p;
  p.legit_sources = std::max(100, static_cast<int>(10000 * c.scale));
  p.legit_ases = std::max(20, static_cast<int>(200 * std::sqrt(c.scale)));
  p.attack_sources = std::max(1000, static_cast<int>(100000 * c.scale));
  p.attack_ases =
      std::max(10, static_cast<int>(c.attack_ases * std::sqrt(c.scale)));
  p.legit_overlap = c.legit_overlap;
  p.seed = c.seed ^ 0xB07;
  return p;
}

std::array<TickConfig, kPolicies> tick_configs(const InetExperimentConfig& c,
                                               const SourcePlacement& pl) {
  TickConfig base;
  base.bottleneck_capacity = std::max(200, static_cast<int>(16000 * c.scale));
  base.internal_capacity = 4 * base.bottleneck_capacity;
  base.ticks = c.ticks;
  base.warmup_ticks = c.ticks / 3;
  base.seed = c.seed ^ 0x51;
  const int active = static_cast<int>(pl.legit_as_ids.size() +
                                      pl.attack_as_ids.size());
  const int a_hi = std::max(4, active * 200 / 500);
  const int a_lo = std::max(2, active * 100 / 500);
  const TickPolicy policy[kPolicies] = {
      TickPolicy::kNoDefense, TickPolicy::kFairPriority, TickPolicy::kFloc,
      TickPolicy::kFloc, TickPolicy::kFloc};
  const int guaranteed[kPolicies] = {0, 0, 0, a_hi, a_lo};
  std::array<TickConfig, kPolicies> out;
  for (int i = 0; i < kPolicies; ++i) {
    out[i] = base;
    out[i].policy = policy[i];
    out[i].guaranteed_paths = guaranteed[i];
  }
  return out;
}

std::uint64_t offered_pkts(const TickResults& r) {
  return r.delivered_legit_legit + r.delivered_legit_attack +
         r.delivered_attack + r.dropped_target;
}

bool same_results(const TickResults& x, const TickResults& y) {
  return x.legit_legit_frac == y.legit_legit_frac &&
         x.legit_attack_frac == y.legit_attack_frac &&
         x.attack_frac == y.attack_frac && x.utilization == y.utilization &&
         x.delivered_legit_legit == y.delivered_legit_legit &&
         x.delivered_legit_attack == y.delivered_legit_attack &&
         x.delivered_attack == y.delivered_attack &&
         x.dropped_internal == y.dropped_internal &&
         x.dropped_target == y.dropped_target &&
         x.aggregate_count == y.aggregate_count &&
         x.mean_legit_window == y.mean_legit_window;
}

std::string check_shares(const TickResults& r) {
  const double shares[] = {r.legit_legit_frac, r.legit_attack_frac,
                           r.attack_frac};
  double total = 0.0;
  for (double x : shares) {
    if (!(x >= 0.0 && x <= 1.0)) return "class share outside [0, 1]";
    total += x;
  }
  if (total > r.utilization * (1.0 + 1e-12)) {
    return "class shares exceed utilization";
  }
  return {};
}

struct InetRun {
  double wall_s = 0.0;  // whole instance, timed on its own
  double cpu_s = 0.0, setup_cpu_s = 0.0;  // thread CPU time
  double clock_scale = 1.0;  // to the reference clock, set by the caller
  double topology_s = 0.0, placement_s = 0.0, ctor_s = 0.0;
  std::array<double, kPolicies> run_s{};
  std::array<TickResults, kPolicies> res{};
  std::uint64_t allocs = 0;
  std::uint64_t digest = 0;

  // Packets offered to the FLoc-defended target link (NA, A-hi, A-lo).
  std::uint64_t floc_pkts() const {
    return offered_pkts(res[2]) + offered_pkts(res[3]) + offered_pkts(res[4]);
  }
  double ref_cpu_s() const { return cpu_s * clock_scale; }
  double pkts_per_ref_cpu_s() const {
    return static_cast<double>(floc_pkts()) / ref_cpu_s();
  }
};

std::uint64_t inet_digest(const std::array<TickResults, kPolicies>& res) {
  Digest d;
  for (const TickResults& x : res) {
    for (double v : {x.legit_legit_frac, x.legit_attack_frac, x.attack_frac,
                     x.utilization, x.mean_legit_window}) {
      d.add(v);
    }
    for (std::uint64_t v :
         {x.delivered_legit_legit, x.delivered_legit_attack, x.delivered_attack,
          x.dropped_internal, x.dropped_target,
          static_cast<std::uint64_t>(x.aggregate_count)}) {
      d.add(v);
    }
  }
  return d.h;
}

// Builds the world; with `run` false it stops after the TickSim ctors.
InetRun run_inet(const InetExperimentConfig& c, bool run) {
  InetRun r;
  telemetry::ScopedAllocCount allocs;
  const std::uint64_t cpu_start = cpu_ns();
  const std::uint64_t start = clock_ns();
  std::uint64_t t0 = start;
  const AsGraph graph = generate_skitter_tree(skitter_config(c));
  std::uint64_t t1 = clock_ns();
  r.topology_s = secs(t1 - t0);
  const SourcePlacement pl = place_sources(graph, placement_config(c));
  t0 = clock_ns();
  r.placement_s = secs(t0 - t1);
  r.setup_cpu_s = secs(cpu_ns() - cpu_start);
  const auto tcfg = tick_configs(c, pl);
  for (int i = 0; i < kPolicies; ++i) {
    const std::uint64_t c0 = cpu_ns();
    t0 = clock_ns();
    TickSim sim(graph, pl, tcfg[i]);
    t1 = clock_ns();
    r.setup_cpu_s += secs(cpu_ns() - c0);
    r.ctor_s += secs(t1 - t0);
    if (!run) continue;
    r.res[i] = sim.run();
    r.run_s[i] = secs(clock_ns() - t1);
  }
  r.wall_s = secs(clock_ns() - start);
  r.cpu_s = secs(cpu_ns() - cpu_start);
  r.allocs = allocs.allocs();
  r.digest = inet_digest(r.res);
  return r;
}

// One instance through the library's one-call driver. It has no per-piece
// split, only the wall time and the rows.
InetRun run_inet_reference(const InetExperimentConfig& c) {
  InetRun r;
  const std::uint64_t cpu_start = cpu_ns();
  const std::uint64_t start = clock_ns();
  const std::vector<InetScenarioRow> rows = run_inet_experiment(c);
  r.wall_s = secs(clock_ns() - start);
  r.cpu_s = secs(cpu_ns() - cpu_start);
  if (rows.size() != kPolicies) throw std::runtime_error("expected 5 policy rows");
  for (int i = 0; i < kPolicies; ++i) r.res[i] = rows[i].results;
  r.digest = inet_digest(r.res);
  return r;
}

int run_inet_workload(const Args& a) {
  const InetExperimentConfig c = inet_config(a);
  Tally tally;
  std::vector<InetRun> plain, traced;
  std::vector<double> setups;
  std::array<TickResults, kPolicies> ref{};
  std::uint64_t first_digest = 0;
  const std::uint64_t start = clock_ns();
  std::uint64_t last_ns = 0;  // length of the previous iteration
  double probe = probe_ns_per_iter();
  for (int i = 0; i < kMinInstances * (a.trace ? 2 : 1) ||
                  secs(clock_ns() - start + last_ns) < a.seconds;
       ++i) {
    const std::uint64_t iter_start = clock_ns();
    std::vector<double> iter_setups;
    for (int k = 0; k < kExtraSetups && !a.trace; ++k) {
      iter_setups.push_back(run_inet(c, false).setup_cpu_s);
    }
    // Instance 0 runs run_inet_experiment. Every later instance rebuilds the
    // world from the public pieces and must reproduce its rows exactly.
    // Each policy row is one operation.
    const bool is_traced = a.trace && i % 2 == 1;
    InetRun r = i == 0 ? run_inet_reference(c) : run_inet(c, true);
    const double next_probe = probe_ns_per_iter();
    r.clock_scale = clock_scale(probe, next_probe);
    probe = next_probe;
    if (a.tamper_digest && i == 1) r.digest ^= 1;
    if (i == 0) {
      first_digest = r.digest;
      ref = r.res;
    } else {
      iter_setups.push_back(r.setup_cpu_s);
    }
    for (double x : iter_setups) setups.push_back(x * r.clock_scale);
    for (int p = 0; p < kPolicies; ++p) {
      std::string f = check_shares(r.res[p]);
      if (f.empty() && !same_results(r.res[p], ref[p])) {
        f = "differs from run_inet_experiment";
      }
      if (f.empty() && r.digest != first_digest) {
        f = "simulated-outcome digest differs from the first run";
      }
      if (f.empty() && p == 0 && is_traced) {
        // Zero means the counting allocator (perfbench_counted) is absent.
        if (r.allocs == 0) f = "allocation counter inactive";
        if (!traced.empty() && r.allocs != traced.front().allocs) {
          f = "allocation count differs between traced runs";
        }
      }
      tally.op(f.empty() ? f : std::string(kPolicyKeys[p]) + ": " + f);
    }
    std::fprintf(stderr,
                 "instance %d%s: ref cpu %.4f s, cpu %.4f s, wall %.4f s\n", i,
                 is_traced ? " (traced)" : "", r.ref_cpu_s(), r.cpu_s,
                 r.wall_s);
    (is_traced ? traced : plain).push_back(r);
    last_ns = clock_ns() - iter_start;
  }

  const InetRun& p =
      plain[median_index(plain, [](const InetRun& r) { return r.wall_s; })];
  Report rep;
  if (!a.trace) {
    std::vector<double> cpus, rates;
    for (const InetRun& r : plain) {
      cpus.push_back(r.ref_cpu_s());
      rates.push_back(r.pkts_per_ref_cpu_s());
    }
    rep.add("ref_cpu_s", median(cpus), "s");
    rep.add("setup_s", median(setups), "s");
    rep.add("pkts_per_ref_cpu_s", median(rates), "pkts/s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("legit_share", p.res[2].legit_legit_frac, "fraction");
    std::printf("%s seed=%llu: %zu instances, median ref cpu %.4f s\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                plain.size(), median(cpus));
  } else {
    const InetRun& t =
        traced[median_index(traced, [](const InetRun& r) { return r.wall_s; })];
    std::vector<std::pair<std::string, double>> rows = {
        {"inetsim.topology_s", t.topology_s},
        {"inetsim.placement_s", t.placement_s},
        {"inetsim.tick_ctor_s", t.ctor_s}};
    for (int i = 0; i < kPolicies; ++i) {
      rows.emplace_back(std::string("inetsim.") + kPolicyKeys[i] + ".run_s",
                        t.run_s[i]);
    }
    double sum = 0.0;
    for (const auto& [n, v] : rows) sum += v;
    const double residual = t.wall_s - sum;
    const double overhead = t.wall_s / p.wall_s;
    std::printf("ledger: %s seed=%llu, median of %zu traced instances\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                traced.size());
    for (const auto& [n, v] : rows) {
      std::printf("  %-24s %10.4f s %6.2f %%\n", n.c_str(), v,
                  100.0 * v / t.wall_s);
    }
    std::printf("  %-24s %10.4f s\n", "sum of rows", sum);
    std::printf("  %-24s %10.4f s (ledger.residual %.6f s)\n", "traced wall",
                t.wall_s, residual);
    std::printf("  trace.overhead %.3fx (untraced wall %.4f s)\n", overhead,
                p.wall_s);

    for (const auto& [n, v] : rows) rep.add(n, v, "s");
    for (int i = 0; i < kPolicies; ++i) {
      const std::string pre = std::string("inetsim.") + kPolicyKeys[i];
      rep.add_count(pre + ".pkts", offered_pkts(t.res[i]));
      rep.add(pre + ".legit_share", t.res[i].legit_legit_frac, "fraction");
    }
    rep.add("attack_share", t.res[2].attack_frac, "fraction");
    rep.add_count("run.allocs", t.allocs);
    rep.add("run.allocs_per_kpkt",
            static_cast<double>(t.allocs) * 1000.0 /
                static_cast<double>(t.floc_pkts()),
            "allocs/kpkt");
    rep.add("trace.wall_s", t.wall_s, "s");
    rep.add("untraced.wall_s", p.wall_s, "s");
    rep.add("untraced.cpu_s", p.cpu_s, "s");
    rep.add("host.clock_scale", p.clock_scale, "ratio");
    rep.add("trace.overhead", overhead, "ratio");
    rep.add("ledger.residual", residual, "s");
    // Packet-level layers are not exercised by this workload.
    for (const char* n : kTreeLedgerRows) rep.add(n, 0.0, "s");
    for (const char* n :
         {"netsim.events", "link.target.pkts_sent", "floc.enqueue.calls",
          "floc.cap_verify.calls", "floc.control.calls",
          "floc.state_evictions"}) {
      rep.add_count(n, 0);
    }
    rep.add("netsim.ns_per_event", 0.0, "ns");
    rep.add("floc.admit.ns_per_call", 0.0, "ns");
    rep.add("floc.admit_ratio", 0.0, "ratio");
  }
  rep.print(tally.failed == 0, tally.attempted, tally.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = Args::parse(argc, argv);
    if (a.workload == "tree-cbr" || a.workload == "tree-churn") {
      return run_tree_workload(a);
    }
    if (a.workload == "inet-localized") return run_inet_workload(a);
    std::fprintf(stderr, "perfbench: unknown workload %s\n", a.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
