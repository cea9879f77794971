// prmbench: the prm service benchmark. One command runs one workload
// against `prm_cli serve` child processes and prints every metric by name
// and unit; the last stdout line is the result object
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   prmbench --workload fit_cold|fit_repeat|live_ingest|routed_ingest
//            --seed N --seconds S --trace 0|1 --cli PATH/prm_cli
//            --work-dir DIR [--git-describe TEXT]
//
// Each run: set-up several times (median = setup_s), an open-loop phase at
// the workload's fixed rate (latency), kill -9 + restart several times
// (interquartile mean = restart_s), then a closed-loop phase (throughput). The traced
// run (--trace 1) adds the in-process replay of trace.hpp. See README.md.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/fitting.hpp"
#include "data/time_series.hpp"
#include "loadgen.hpp"
#include "metric_names.hpp"
#include "procs.hpp"
#include "sources.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace prmbench {
namespace {

// ---------------------------------------------------------------------------
// Fixed workload settings. The open-loop rates are about half of the parent
// commit's closed-loop capacity on the 4-core host they were measured on;
// they are constants, never recomputed per run, so every commit sees the
// same offered load.

struct WorkloadSpec {
  const char* name;
  double open_rate;         ///< Offered requests/s in the open-loop phase.
  double latency_limit_ms;  ///< slo_ratio's limit.
  double late_bound_ms;     ///< Validity guard on loadgen.late_p99_ms.
  int setups;               ///< Set-up repetitions (median = setup_s).
  int restarts;             ///< kill -9 + restart repetitions (their interquartile
                            ///< mean = restart_s). Without a WAL: in three rounds
                            ///< spread over the run.
  int threads;              ///< prm_cli serve --threads (every process).
  int event_threads;        ///< prm_cli serve --event-threads (every process).
  bool busy_poll;           ///< Generator polls without sleeping.
  bool ingest;
  bool routed;
};

// Server threads: the host has 4 CPUs and the generator needs one. Cheap
// requests run on 1 loop + 2 workers (with the serve defaults, 4 workers and
// 2 loops, fit_repeat's p99 spread over 8 seeds was 0.32 against 0.12), and
// the generator busy-polls so its wake-ups stay out of their latency. Fits
// are CPU-bound: fit_cold keeps the serve defaults and a sleeping generator.
//
// The ingest workloads are bound by hand-offs between threads and processes
// (generator, router, upstream pool, nodes), not by CPU work. On a shared
// virtual machine a wake-up on another CPU is slow and its cost swings with
// the host's load (a two-thread pipe ping-pong ran 16k-53k round trips per
// 0.5 s across CPUs, a steady 210k on one), so their servers share one CPU,
// where every hand-off between them is a local wake-up; the generator
// busy-polls on another (Deployment::pin_generator). In alternating runs
// within one hour, routed_ingest's closed-loop throughput read 3.4k-17k req/s
// unpinned, 11k-18k co-located.
constexpr WorkloadSpec kWorkloads[] = {
    {"fit_cold", 80.0, 25.0, 5.0, 31, 99, 4, 2, false, false, false},
    {"fit_repeat", 15000.0, 2.0, 1.0, 5, 99, 2, 1, true, false, false},
    {"live_ingest", 18000.0, 5.0, 1.0, 15, 3, 2, 1, true, true, false},
    {"routed_ingest", 3000.0, 10.0, 1.0, 21, 15, 1, 1, true, true, true},
};

constexpr std::size_t kConnections = 4;
constexpr int kFitThreads = 4;
constexpr double kWindowS = 0.5;  ///< Closed-loop throughput window.
/// Unmeasured lead-in before each phase: idle virtual CPUs of a shared host
/// take a moment to come up to speed.
constexpr double kWarmupS = 0.5;
constexpr double kOpenShare = 0.6;  ///< Of --seconds; the rest is closed loop.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  std::string work_dir;
  std::string git_describe = "unknown";
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "prmbench: %s\n"
               "usage: prmbench --workload fit_cold|fit_repeat|live_ingest|routed_ingest\n"
               "                --seed N --seconds S --trace 0|1 --cli PATH "
               "--work-dir DIR [--git-describe TEXT]\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--cli") {
      args.cli = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--git-describe") {
      args.git_describe = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (args.cli.empty() || args.work_dir.empty()) usage_error("--cli and --work-dir are required");
  if (!(args.seconds > 0.0)) usage_error("--seconds must be positive");
  return args;
}

// ---------------------------------------------------------------------------
// Context: host, affinity, build and run settings.

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
    if (last > cpu) out += "-" + std::to_string(last);
    cpu = last;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// /metrics scrapes.

/// The balanced {...} value of `"key":` in `body`, or empty.
std::string_view object_slice(std::string_view body, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":{";
  const std::size_t pos = body.find(needle);
  if (pos == std::string_view::npos) return {};
  const std::size_t open = pos + needle.size() - 1;
  int depth = 0;
  for (std::size_t i = open; i < body.size(); ++i) {
    if (body[i] == '{') ++depth;
    if (body[i] == '}' && --depth == 0) return body.substr(open, i - open + 1);
  }
  return {};
}

using Counters = std::map<std::string, double>;

Counters scrape(std::uint16_t port) {
  std::string body;
  if (blocking_exchange(port, http_request("GET", "/metrics"), body) != 200) {
    throw std::runtime_error("GET /metrics failed on port " + std::to_string(port));
  }
  Counters c;
  auto take = [&](std::string_view scope, std::string_view prefix,
                  std::initializer_list<std::string_view> keys) {
    for (const std::string_view key : keys) {
      if (const auto v = number_field(scope, key)) {
        c[std::string(prefix) + std::string(key)] = *v;
      }
    }
  };
  take(object_slice(body, "fit_cache"), "fit_cache.", {"hits", "misses"});
  take(object_slice(body, "response_cache"), "response_cache.",
       {"hits", "misses", "evictions"});
  take(body, "", {"fits_computed"});
  take(object_slice(body, "monitor"), "monitor.",
       {"refits_executed", "refits_coalesced", "refits_failed"});
  const std::string_view server = object_slice(body, "server");
  take(server, "server.",
       {"requests_total", "responses_5xx", "writev_calls", "connections_rejected"});
  take(object_slice(server, "buffer_pool"), "buffer_pool.", {"acquired", "misses"});
  take(object_slice(body, "wal"), "wal.", {"bytes", "records", "fsyncs", "compactions"});
  take(object_slice(object_slice(body, "cluster"), "upstreams"), "upstream.",
       {"connects", "forwarded", "pipelined", "failed"});
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters out;
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    out[key] = value - (it == b.end() ? 0.0 : it->second);
  }
  return out;
}

Counters operator+(Counters a, const Counters& b) {
  for (const auto& [key, value] : b) a[key] += value;
  return a;
}

double get(const Counters& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The deployment: one node, or two ring nodes behind a router.

class Deployment {
 public:
  Deployment(const Args& args, const WorkloadSpec& spec, std::string dir)
      : args_(args), spec_(spec), dir_(std::move(dir)) {
    const std::size_t nodes = spec.routed ? 2 : 1;
    for (std::size_t i = 0; i < nodes; ++i) {
      nodes_.push_back(std::make_unique<ServeProcess>());
      node_ports_.push_back(free_port());
    }
    if (spec.routed) router_port_ = free_port();
    // Ingest servers are co-located (see kWorkloads): every server process on
    // the second CPU of this process's mask, the generator on the first.
    std::vector<int> cpus;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (spec.ingest && ::sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
      }
    }
    if (cpus.size() >= 2) {
      pinned_ = true;
      generator_cpu_ = cpus[0];
      server_cpu_ = cpus[1];
      CPU_ZERO(&server_cpus_);
      CPU_SET(server_cpu_, &server_cpus_);
    }
  }

  /// Where the processes run, for the context line.
  std::string placement() const {
    if (!pinned_) return "unpinned";
    return "generator on cpu " + std::to_string(generator_cpu_) + ", servers on cpu " +
           std::to_string(server_cpu_);
  }

  /// Pins the calling thread (the generator) to its CPU; no-op when unpinned.
  void pin_generator() const {
    if (!pinned_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(generator_cpu_, &set);
    ::sched_setaffinity(0, sizeof set, &set);
  }

  /// Flags common to every process (the ones this benchmark fixes).
  static std::vector<std::string> fixed_flags(const WorkloadSpec& spec) {
    return {"--threads",     std::to_string(spec.threads),
            "--event-threads", std::to_string(spec.event_threads),
            "--fit-threads", std::to_string(kFitThreads)};
  }

  std::string peers() const {
    std::string out;
    for (const std::uint16_t port : node_ports_) {
      if (!out.empty()) out += ',';
      out += "127.0.0.1:" + std::to_string(port);
    }
    return out;
  }

  std::vector<std::string> node_flags(std::size_t i) const {
    std::vector<std::string> flags = {"--port", std::to_string(node_ports_[i])};
    const std::vector<std::string> fixed = fixed_flags(spec_);
    flags.insert(flags.end(), fixed.begin(), fixed.end());
    if (spec_.ingest) {
      flags.push_back("--wal-dir");
      flags.push_back(wal_dir(i));
    }
    if (spec_.routed) {
      flags.push_back("--cluster");
      flags.push_back("127.0.0.1:" + std::to_string(node_ports_[i]));
      flags.push_back("--peers");
      flags.push_back(peers());
    }
    return flags;
  }

  std::vector<std::string> router_flags() const {
    std::vector<std::string> flags = {"--port", std::to_string(router_port_)};
    const std::vector<std::string> fixed = fixed_flags(spec_);
    flags.insert(flags.end(), fixed.begin(), fixed.end());
    flags.insert(flags.end(), {"--router", "on", "--peers", peers()});
    return flags;
  }

  std::string wal_dir(std::size_t i) const { return dir_ + "/wal-node" + std::to_string(i); }

  /// Fresh state (empty WAL directories) and every process started; waits
  /// until all answer /healthz.
  void start_fresh() {
    stop();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      std::filesystem::remove_all(wal_dir(i));
    }
    start_nodes();
    if (spec_.routed) {
      router_.start(args_.cli, router_flags(), dir_ + "/router.log", server_cpus());
      if (!wait_healthy(router_port_, 30.0)) throw std::runtime_error("router did not start");
    }
  }

  /// One node after the other: co-located nodes replaying their WALs at
  /// once would time how the scheduler interleaves them.
  void start_nodes() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i]->start(args_.cli, node_flags(i), dir_ + "/node" + std::to_string(i) + ".log",
                       server_cpus());
      if (!wait_healthy(node_ports_[i], 30.0)) {
        throw std::runtime_error("node " + std::to_string(i) + " did not start");
      }
    }
  }

  void kill_nodes() {
    for (auto& node : nodes_) node->kill9();
  }

  void stop() {
    router_.kill9();
    kill_nodes();
  }

  std::uint64_t peak_rss_kb() const {
    std::uint64_t sum = router_.peak_rss_kb();
    for (const auto& node : nodes_) sum += node->peak_rss_kb();
    return sum;
  }

  /// Waits (at most 10 s) until the nodes' refit counters hold still for
  /// 100 ms, taken as no refit queued or running: a kill then leaves none
  /// pending, and the restart replays the WAL without re-run refits beside it.
  void wait_refits_idle() const {
    auto refits_ended = [this] {
      const Counters c = scrape_all();
      return get(c, "monitor.refits_executed") + get(c, "monitor.refits_failed") +
             get(c, "monitor.refits_coalesced");
    };
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    double last = refits_ended();
    for (int still = 0; still < 5 && Clock::now() < deadline;) {
      ::usleep(20000);
      const double now = refits_ended();
      still = now == last ? still + 1 : 0;
      last = now;
    }
  }

  /// Where clients connect: the router, or the single node.
  std::uint16_t front_port() const { return spec_.routed ? router_port_ : node_ports_[0]; }
  const std::vector<std::uint16_t>& node_ports() const noexcept { return node_ports_; }

  /// Counters summed over the nodes, plus the router's under "router.".
  Counters scrape_all() const {
    Counters sum;
    for (const std::uint16_t port : node_ports_) sum = sum + scrape(port);
    if (spec_.routed) {
      for (const auto& [key, value] : scrape(router_port_)) sum["router." + key] = value;
    }
    return sum;
  }

 private:
  const Args& args_;
  const WorkloadSpec& spec_;
  std::string dir_;
  std::vector<std::unique_ptr<ServeProcess>> nodes_;
  std::vector<std::uint16_t> node_ports_;
  ServeProcess router_;
  std::uint16_t router_port_ = 0;
  bool pinned_ = false;
  int generator_cpu_ = -1;
  int server_cpu_ = -1;
  cpu_set_t server_cpus_;

  const cpu_set_t* server_cpus() const { return pinned_ ? &server_cpus_ : nullptr; }
};

/// GET every stream through `port`; checks samples_seen against the acked
/// counts and sums refits.total / refits.warm.
void verify_streams(std::uint16_t port, const std::vector<std::uint64_t>& acked,
                    CheckLog& checks, const char* when, double* refits_total = nullptr,
                    double* refits_warm = nullptr) {
  BlockingConn conn(port);
  std::string body;
  for (std::size_t s = 0; s < acked.size(); ++s) {
    const int status = conn.exchange(http_request("GET", "/v1/streams/" + stream_name(s)), body);
    const std::optional<double> seen = number_field(body, "samples_seen");
    if (status != 200 || !seen) {
      checks.fail(std::string("ingest: GET ") + stream_name(s) + " " + when + " answered " +
                  std::to_string(status));
      continue;
    }
    if (static_cast<std::uint64_t>(*seen) != acked[s]) {
      checks.fail(std::string("ingest: ") + stream_name(s) + " samples_seen " +
                  std::to_string(static_cast<std::uint64_t>(*seen)) + " != " +
                  std::to_string(acked[s]) + " acknowledged " + when);
    }
    if (refits_total) *refits_total += number_field(body, "total").value_or(0.0);
    if (refits_warm) *refits_warm += number_field(body, "warm").value_or(0.0);
  }
}

/// After the nodes restart, a router may hold them DOWN for its cooldown;
/// wait until a stream read through it succeeds on every node's streams.
void wait_router_ready(std::uint16_t port) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  BlockingConn conn(port);
  std::string body;
  for (std::size_t s = 0; s < kStreams; s += 17) {
    while (conn.exchange(http_request("GET", "/v1/streams/" + stream_name(s)), body) != 200) {
      if (Clock::now() > deadline) throw std::runtime_error("router never reached the nodes");
      ::usleep(2000);
    }
  }
}

/// fit_cold's bit-identity check: the sampled /v1/fit responses against
/// core::fit_model in this process.
void verify_fits(const std::vector<FitColdSource::Sampled>& sampled, CheckLog& checks) {
  if (sampled.empty()) checks.fail("fit_cold: no /v1/fit response was sampled");
  for (const FitColdSource::Sampled& s : sampled) {
    const BaseSeries& base = base_series()[s.input.base];
    const prm::data::PerformanceSeries series("series", base.times, s.input.values);
    prm::core::FitOptions options;
    options.multistart.threads = 1;
    const prm::core::FitResult fit = prm::core::fit_model(
        std::string(kFamilies[s.input.family]), series, base.holdout, options);
    const auto parameters = number_array_field(s.body, "parameter_vector");
    const std::string_view solver = object_slice(s.body, "solver");
    const std::optional<double> sse = number_field(solver, "sse");
    bool same = parameters && sse && parameters->size() == fit.parameters().size() &&
                *sse == fit.sse;
    for (std::size_t i = 0; same && i < parameters->size(); ++i) {
      same = (*parameters)[i] == fit.parameters()[i];
    }
    if (!same) {
      checks.fail("fit_cold: served " + std::string(kFamilies[s.input.family]) + " fit of " +
                  base.name + " differs from core::fit_model in-process");
    }
  }
}

/// Mean GET round trip (us) over keep-alive connections, alternating two
/// ports per stream: the router and the stream's owning node.
double router_hop_us(std::uint16_t router_port, const std::vector<std::uint16_t>& node_ports) {
  BlockingConn via_router(router_port);
  std::vector<std::unique_ptr<BlockingConn>> direct;
  for (const std::uint16_t port : node_ports) direct.push_back(std::make_unique<BlockingConn>(port));
  std::vector<std::size_t> owner(kStreams, 0);
  std::string body;
  for (std::size_t s = 0; s < kStreams; ++s) {
    via_router.exchange(http_request("GET", "/v1/cluster/owner/" + stream_name(s)), body);
    const std::size_t colon = body.find("\"owner\":\"127.0.0.1:");
    if (colon == std::string::npos) continue;
    const int port = std::atoi(body.c_str() + colon + 19);
    for (std::size_t n = 0; n < node_ports.size(); ++n) {
      if (node_ports[n] == port) owner[s] = n;
    }
  }
  std::vector<double> routed;
  std::vector<double> straight;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      const std::string get = http_request("GET", "/v1/streams/" + stream_name(s));
      Clock::time_point t0 = Clock::now();
      via_router.exchange(get, body);
      routed.push_back(ms_between(t0, Clock::now()) * 1e3);
      t0 = Clock::now();
      direct[owner[s]]->exchange(get, body);
      straight.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
  }
  return mean(routed) - mean(straight);
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

void print_result(const Result& result, bool trace) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  if (result.correct) {
    auto emit = [&](const MetricName& metric) {
      const auto it = result.metrics.find(std::string(metric.name));
      double value = it == result.metrics.end() ? 0.0 : it->second;
      if (!std::isfinite(value)) value = 0.0;
      std::string number;
      append_double(number, value);
      out += first ? "" : ", ";
      first = false;
      out += "\"" + std::string(metric.name) + "\": {\"value\": " + number + ", \"unit\": \"" +
             std::string(metric.unit) + "\"}";
    };
    if (trace) {
      for (const MetricName& metric : kPerLayer) emit(metric);
    } else {
      for (const MetricName& metric : kEndToEnd) emit(metric);
    }
  }
  out += "}}";
  std::cout << out << std::endl;
}

int run(const Args& args) {
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) found = &spec;
  }
  if (!found) usage_error("unknown workload '" + args.workload + "'");
  const WorkloadSpec& spec = *found;
  if (::access(args.cli.c_str(), X_OK) != 0) usage_error("no executable at " + args.cli);

  const std::string dir =
      args.work_dir + "/" + spec.name + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const double open_seconds = args.seconds * kOpenShare;
  const double closed_seconds = args.seconds - open_seconds;

  Deployment deployment(args, spec, dir);
  cpu_set_t own_cpus;
  CPU_ZERO(&own_cpus);
  ::sched_getaffinity(0, sizeof own_cpus, &own_cpus);

  // Context: everything needed to interpret (or refuse) the numbers.
  {
    std::ostringstream ctx;
    ctx << "context {\"workload\": \"" << spec.name << "\", \"seed\": " << args.seed
        << ", \"seconds\": " << args.seconds << ", \"open_seconds\": " << open_seconds
        << ", \"closed_seconds\": " << closed_seconds << ", \"open_rate_rps\": " << spec.open_rate
        << ", \"latency_limit_ms\": " << spec.latency_limit_ms
        << ", \"late_bound_ms\": " << spec.late_bound_ms
        << ", \"connections\": " << kConnections << ", \"generator_threads\": 1"
        << ", \"generator_busy_poll\": " << (spec.busy_poll ? "true" : "false")
        << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN) << ", \"affinity\": \""
        << affinity_list() << "\", \"cpu\": \"" << json_escape(cpu_model())
        << "\", \"build_type\": \"" << PRMBENCH_BUILD_TYPE << "\", \"prm_enable_native\": \""
        << PRMBENCH_NATIVE << "\", \"cxx_flags\": \"" << json_escape(PRMBENCH_CXX_FLAGS)
        << "\", \"compiler\": \"" << PRMBENCH_COMPILER << "\", \"git_describe\": \""
        << json_escape(args.git_describe) << "\", \"server_flags\": \"";
    const std::vector<std::string> flags = Deployment::fixed_flags(spec);
    for (std::size_t i = 0; i < flags.size(); ++i) ctx << (i ? " " : "") << flags[i];
    ctx << (spec.ingest ? " --wal-dir DIR (fsync: serve default)" : "")
        << (spec.routed ? "; 2 nodes --cluster SELF --peers A,B; router --router on --peers A,B"
                        : "")
        << "\", \"placement\": \"" << deployment.placement()
        << "\", \"setups\": " << spec.setups << ", \"restarts\": " << spec.restarts
        << ", \"input_digest\": \"" << input_digest(spec.name, args.seed, kConnections)
        << "\"}";
    std::cout << ctx.str() << std::endl;
  }

  CheckLog checks;
  deployment.pin_generator();
  LoadGenOptions lg_options;
  lg_options.connections = kConnections;
  lg_options.latency_limit_ms = spec.latency_limit_ms;
  lg_options.busy_poll = spec.busy_poll;

  const std::string workload = spec.name;
  const RepeatCatalogue catalogue =
      workload == "fit_repeat" ? make_repeat_catalogue(args.seed) : RepeatCatalogue{};
  std::unique_ptr<FitColdSource> cold;
  std::unique_ptr<FitRepeatSource> repeat;
  std::unique_ptr<IngestSource> ingest;
  RequestSource* source = nullptr;
  if (workload == "fit_cold") {
    cold = std::make_unique<FitColdSource>(args.seed, checks);
    source = cold.get();
  } else if (workload == "fit_repeat") {
    repeat = std::make_unique<FitRepeatSource>(catalogue, args.seed, checks);
    source = repeat.get();
  }

  // Set-up, several times: process start plus priming or stream creation.
  std::vector<double> setup_s;
  for (int rep = 0; rep < spec.setups; ++rep) {
    const Clock::time_point t0 = Clock::now();
    deployment.start_fresh();
    lg_options.port = deployment.front_port();
    LoadGen loadgen(lg_options);
    if (repeat) {
      repeat->start_priming();
      loadgen.run_closed(*repeat, 3600.0);
      repeat->stop_priming();
    } else if (spec.ingest) {
      ingest = std::make_unique<IngestSource>(args.seed, kConnections, checks);
      ingest->start_creating();
      loadgen.run_closed(*ingest, 3600.0);
      ingest->stop_creating();
      source = ingest.get();
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  LoadGen loadgen(lg_options);

  // kill -9 + restart, timed: restart_s. With a WAL, every restart comes
  // right after the open loop, whose fixed rate and length set the WAL's
  // size. Without one a restart does the same work anywhere, so the restarts
  // come in three rounds (before the open loop, after it and after the closed
  // loop): a burst of host noise then moves a third of the samples, not all.
  std::vector<double> restart_s;
  const bool spread_restarts = !spec.ingest;
  const int restart_rounds = spread_restarts ? 3 : 1;
  auto restart_round = [&](bool copy_wal) {
    for (int rep = 0; rep < spec.restarts / restart_rounds; ++rep) {
      if (spec.ingest) deployment.wait_refits_idle();
      deployment.kill_nodes();
      if (copy_wal && rep == 0) {
        std::filesystem::copy(deployment.wal_dir(0), dir + "/wal-copy",
                              std::filesystem::copy_options::recursive);
      }
      const Clock::time_point t0 = Clock::now();
      deployment.start_nodes();
      restart_s.push_back(seconds_between(t0, Clock::now()));
    }
  };
  auto reprime = [&] {  // a restarted node starts cold; re-prime (checked, untimed)
    repeat->start_priming();
    loadgen.run_closed(*repeat, 3600.0);
    repeat->stop_priming();
  };
  if (spread_restarts) {
    restart_round(false);
    if (repeat) reprime();
  }

  // Open loop at the fixed rate: latency.
  loadgen.run_open(*source, spec.open_rate, kWarmupS);
  const Counters c0 = deployment.scrape_all();
  if (ingest) ingest->track_refit_lag(true);
  const PhaseStats open = loadgen.run_open(*source, spec.open_rate, open_seconds);
  if (ingest) ingest->track_refit_lag(false);
  const Counters c1 = deployment.scrape_all();
  if (ingest) verify_streams(deployment.front_port(), ingest->acked(), checks, "after the open loop");

  // Restart (on the same WAL directory, if any).
  const std::uint64_t rss_before = deployment.peak_rss_kb();
  const bool keep_wal_copy = args.trace && spec.ingest;
  restart_round(keep_wal_copy);
  const std::string wal_copy = keep_wal_copy ? dir + "/wal-copy" : std::string();
  if (spec.routed) wait_router_ready(deployment.front_port());
  if (ingest) verify_streams(deployment.front_port(), ingest->acked(), checks, "after restart");
  if (repeat) reprime();

  // Closed loop: throughput.
  loadgen.run_closed(*source, kWarmupS);
  const Counters c2 = deployment.scrape_all();
  const PhaseStats closed = loadgen.run_closed(*source, closed_seconds);
  const Counters c3 = deployment.scrape_all();
  double refits_total = 0.0;
  double refits_warm = 0.0;
  if (ingest) {
    verify_streams(deployment.front_port(), ingest->acked(), checks, "after the closed loop",
                   &refits_total, &refits_warm);
  }
  const std::uint64_t rss_after = deployment.peak_rss_kb();
  if (spread_restarts) restart_round(false);
  const double hop_us = args.trace && spec.routed
                            ? router_hop_us(deployment.front_port(), deployment.node_ports())
                            : 0.0;
  deployment.stop();
  ::sched_setaffinity(0, sizeof own_cpus, &own_cpus);  // the replay below may use every CPU
  if (cold) verify_fits(cold->sampled(), checks);

  // Results.
  Result result;
  result.attempted = open.attempted + closed.attempted;
  result.failed = open.failed + closed.failed;
  std::vector<double> open_latency = open.latency_ms;
  std::sort(open_latency.begin(), open_latency.end());
  const TailRank tail = highest_tail(open_latency.size());
  if (tail.q < 0.99) {
    checks.fail("open loop gave " + std::to_string(open_latency.size()) +
                " latency samples; p99 needs 1000");
  }
  std::vector<double> late = open.late_ms;
  std::sort(late.begin(), late.end());
  const double late_p99 = percentile_sorted(late, 0.99);
  const bool valid = late_p99 <= spec.late_bound_ms;

  std::map<std::string, double>& m = result.metrics;
  m["setup_s"] = median(setup_s);
  m["throughput_rps"] = median_window_rate(closed, kWindowS, /*samples=*/false);
  m["samples_per_s"] = median_window_rate(closed, kWindowS, /*samples=*/true);
  m["p50_ms"] = percentile_sorted(open_latency, 0.5);
  m["p99_ms"] = median_chunk_percentile(open.latency_ms, 0.99);
  m["slo_ratio"] = ratio(static_cast<double>(open.within_limit), static_cast<double>(open.attempted));
  // One restart takes one of two typical times (a node's start read 120-135
  // or 175-215 ms within one run), and a median jumps between the two as
  // their shares shift from run to run; the mean of the middle half moves
  // with the shares.
  m["restart_s"] = interquartile_mean(restart_s);
  m["peak_rss_mb"] = static_cast<double>(std::max(rss_before, rss_after)) / 1024.0;

  if (args.trace) {
    const Counters d = (c1 - c0) + (c3 - c2);
    const std::string front = spec.routed ? "router." : "";
    m["loadgen.late_p99_ms"] = late_p99;
    m["loadgen.fail_ratio"] =
        ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted));
    m["loadgen.open_samples"] = static_cast<double>(open_latency.size());
    m["http.resp_bytes"] = ratio(static_cast<double>(closed.resp_bytes), static_cast<double>(closed.ok));
    const double front_requests = get(d, front + "server.requests_total");
    m["server.flushes_per_resp"] = ratio(get(d, front + "server.writev_calls"), front_requests);
    m["server.pool_miss_ratio"] =
        ratio(get(d, front + "buffer_pool.misses"), get(d, front + "buffer_pool.acquired"));
    m["server.shed_ratio"] = ratio(get(d, front + "server.connections_rejected"), front_requests);
    m["app.fits_per_req"] = ratio(get(d, "fits_computed"), get(d, "server.requests_total"));
    const double rc_lookups = get(d, "response_cache.hits") + get(d, "response_cache.misses");
    m["response_cache.hit_ratio"] = ratio(get(d, "response_cache.hits"), rc_lookups);
    m["response_cache.evictions_per_1k"] = 1e3 * ratio(get(d, "response_cache.evictions"), rc_lookups);
    m["fit_cache.hit_ratio"] = ratio(get(d, "fit_cache.hits"),
                                     get(d, "fit_cache.hits") + get(d, "fit_cache.misses"));
    const double samples = static_cast<double>(open.samples_ok + closed.samples_ok);
    const double executed = get(d, "monitor.refits_executed");
    m["refit.per_1k_samples"] = 1e3 * ratio(executed, samples);
    m["refit.coalesce_ratio"] =
        ratio(get(d, "monitor.refits_coalesced"), executed + get(d, "monitor.refits_coalesced"));
    m["refit.failed_ratio"] = ratio(get(d, "monitor.refits_failed"), executed);
    m["refit.warm_ratio"] = ratio(refits_warm, refits_total);
    if (ingest) {
      std::vector<double> lag = ingest->refit_lag_ms();
      std::sort(lag.begin(), lag.end());
      m["refit.lag_p50_ms"] = percentile_sorted(lag, 0.5);
      m["refit.lag_p99_ms"] = percentile_sorted(lag, 0.99);
      std::uint64_t ingest_requests = 0;
      for (std::size_t k : {kIngest, kIngestBatch}) {
        ingest_requests += open.kind_count[k] + closed.kind_count[k];
      }
      m["wal.bytes_per_sample"] = ratio(get(d, "wal.bytes"), samples);
      m["wal.records_per_req"] = ratio(get(d, "wal.records"), static_cast<double>(ingest_requests));
      m["wal.fsyncs_per_s"] = ratio(get(d, "wal.fsyncs"), open.seconds + closed.seconds);
      m["wal.compactions"] = get(d, "wal.compactions");
    }
    if (spec.routed) {
      const double forwarded = get(d, "router.upstream.forwarded");
      m["upstream.connects_per_1k"] = 1e3 * ratio(get(d, "router.upstream.connects"), forwarded);
      m["upstream.pipelined_ratio"] = ratio(get(d, "router.upstream.pipelined"), forwarded);
      m["upstream.failed_ratio"] =
          ratio(get(d, "router.upstream.failed"), forwarded + get(d, "router.upstream.failed"));
      m["router.hop_us"] = hop_us;
    }

    TraceConfig trace_config;
    trace_config.workload = workload;
    trace_config.seed = args.seed;
    trace_config.fit_threads = kFitThreads;
    trace_config.work_dir = dir;
    trace_config.wal_copy = wal_copy;
    std::filesystem::create_directories(args.work_dir + "/../traces");
    trace_config.spans_path = args.work_dir + "/../traces/" + workload + "-seed" +
                              std::to_string(args.seed) + ".json";
    for (const auto& [name, value] : traced_run(trace_config)) m[name] = value;
    // The closed-loop mean minus what the handler and parser account for.
    const double closed_mean_us =
        1e3 * ratio(std::accumulate(closed.latency_ms.begin(), closed.latency_ms.end(), 0.0),
                    static_cast<double>(closed.latency_ms.size()));
    m["server.outside_handler_us"] =
        closed_mean_us - m["app.handle_us.mean"] - m["http.parse_us"];
  }

  std::filesystem::remove_all(dir);
  result.correct = checks.ok();

  // Human-readable lines; the result object is the last line.
  auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out += ", ";
      append_double(out, values[i]);
    }
    return out + "]";
  };
  std::printf("run {\"valid\": %s, \"late_p99_ms\": %.4f, \"late_bound_ms\": %.4f, "
              "\"open_samples\": %zu, \"open_tail\": \"%s\", \"open_tail_ms\": %.4f, "
              "\"open_tail_beyond\": %zu, \"p99_ms\": %.4f, \"closed_requests\": %llu, "
              "\"failed\": %llu, "
              "\"setup_s\": %s, \"restart_s\": %s, \"wal_records_at_restart\": %.0f}\n",
              valid ? "true" : "false", late_p99, spec.late_bound_ms, open_latency.size(),
              tail.label.c_str(), percentile_sorted(open_latency, tail.q), tail.beyond,
              m["p99_ms"], static_cast<unsigned long long>(closed.attempted),
              static_cast<unsigned long long>(result.failed), list(setup_s).c_str(),
              list(restart_s).c_str(), get(c1, "wal.records"));
  if (!valid) {
    std::fprintf(stderr, "prmbench: INVALID run: generator late p99 %.3f ms > bound %.3f ms\n",
                 late_p99, spec.late_bound_ms);
  }
  if (!checks.ok()) {
    std::fprintf(stderr, "prmbench: %llu check(s) failed; first: %s\n",
                 static_cast<unsigned long long>(checks.failures), checks.first_failure.c_str());
  }
  auto print_metric = [&](const MetricName& metric) {
    const std::string name(metric.name);
    std::fprintf(stderr, "  %-34s %14.6g %s\n", name.c_str(), m.count(name) ? m[name] : 0.0,
                 std::string(metric.unit).c_str());
  };
  if (args.trace) {
    for (const MetricName& metric : kPerLayer) print_metric(metric);
  } else {
    for (const MetricName& metric : kEndToEnd) print_metric(metric);
  }
  std::fflush(stdout);
  print_result(result, args.trace);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace prmbench

int main(int argc, char** argv) {
  try {
    return prmbench::run(prmbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prmbench: error: %s\n", e.what());
    return 2;
  }
}
