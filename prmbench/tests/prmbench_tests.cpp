// The benchmark's own tests: the percentile rule, open-loop timing against
// a stalling server, seeded request bytes, and the metric catalogue against
// BENCHMARK.json. Build and run with `python3 prmbench/run.py --test`.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "metric_names.hpp"
#include "serve/json.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace prmbench {
namespace {

// ---------------------------------------------------------------------------
// The percentile rule.

TEST(PercentileRule, ReportsHighestRungWithTenSamplesBeyond) {
  EXPECT_EQ(highest_tail(19).q, 0.0);  // not even p50 has ten beyond
  EXPECT_EQ(highest_tail(20).label, "p50");
  EXPECT_EQ(highest_tail(20).beyond, 10u);
  EXPECT_EQ(highest_tail(999).label, "p90");
  EXPECT_EQ(highest_tail(1000).label, "p99");
  EXPECT_EQ(highest_tail(1000).beyond, 10u);
  EXPECT_EQ(highest_tail(9999).label, "p99");
  EXPECT_EQ(highest_tail(10000).label, "p99.9");
  EXPECT_EQ(highest_tail(100000).label, "p99.99");
  EXPECT_EQ(highest_tail(100000).beyond, 10u);
}

TEST(PercentileRule, NearestRankLeavesExactlyTheStatedCountBeyond) {
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  EXPECT_EQ(percentile_sorted(sorted, 0.99), 990.0);  // 10 samples above it
  EXPECT_EQ(percentile_sorted(sorted, 0.5), 500.0);
  std::vector<double> ten(sorted.begin(), sorted.begin() + 10);
  EXPECT_EQ(percentile_sorted(ten, 0.9), 9.0);  // 0.9 * 10 must not round up
}

TEST(PercentileRule, ChunkMedianNeedsAThousandSamples) {
  std::vector<double> latencies(999, 1.0);
  EXPECT_EQ(median_chunk_percentile(latencies, 0.99), 0.0);
  latencies.assign(3000, 1.0);
  for (int i = 0; i < 30; ++i) latencies[static_cast<std::size_t>(i) * 100] = 50.0;
  // Ten slow samples per 1000-sample chunk sit exactly beyond each p99.
  EXPECT_EQ(median_chunk_percentile(latencies, 0.99), 1.0);
}

TEST(PercentileRule, InterquartileMeanDropsAQuarterFromEachEnd) {
  EXPECT_EQ(interquartile_mean({}), 0.0);
  EXPECT_EQ(interquartile_mean({5.0, 1.0, 3.0}), 3.0);  // n < 4 keeps everything
  // 9 samples: the lowest two and the highest two go, the middle five stay.
  EXPECT_EQ(interquartile_mean({100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, -100.0}), 4.0);
  // Two typical values: the result follows their shares, not a jump.
  EXPECT_DOUBLE_EQ(interquartile_mean({1, 1, 1, 1, 1, 2, 2, 2}), 1.25);
  EXPECT_DOUBLE_EQ(interquartile_mean({1, 1, 1, 2, 2, 2, 2, 2}), 1.75);
}

// ---------------------------------------------------------------------------
// Open-loop timing against a server that stalls once.

/// Answers each GET with a 200 on one accepted connection, in order; the
/// response to request number `stall_at` is held back for `stall_ms`.
class StallingServer {
 public:
  StallingServer(int stall_at, int stall_ms) : stall_at_(stall_at), stall_ms_(stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(listen_fd_, 4);
    thread_ = std::thread([this] { serve(); });
  }
  ~StallingServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }
  StallingServer(const StallingServer&) = delete;
  StallingServer& operator=(const StallingServer&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::string buffer;
    char chunk[4096];
    int served = 0;
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t end = 0;
      while ((end = buffer.find("\r\n\r\n")) != std::string::npos) {
        buffer.erase(0, end + 4);
        if (served++ == stall_at_) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
        }
        static const std::string kResponse =
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        ::send(fd, kResponse.data(), kResponse.size(), MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }

  int stall_at_;
  int stall_ms_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

class GetSource : public RequestSource {
 public:
  bool next(std::size_t, Outgoing& out) override {
    out.wire = kWire;
    out.tag = issued_++;
    return true;
  }
  void complete(std::size_t, const Outgoing&, int, std::string_view,
                Clock::time_point) override {}

 private:
  static constexpr std::string_view kWire = "GET /x HTTP/1.1\r\nHost: t\r\n\r\n";
  std::uint32_t issued_ = 0;
};

TEST(OpenLoop, StallShowsInTheLatencyOfLaterRequests) {
  constexpr int kStallAt = 20;
  constexpr int kStallMs = 200;
  StallingServer server(kStallAt, kStallMs);
  LoadGenOptions options;
  options.port = server.port();
  options.connections = 1;
  LoadGen loadgen(options);
  GetSource source;
  // 500 req/s for 0.4 s: requests are due every 2 ms; request 20 is due at
  // 40 ms and its response is held until ~240 ms.
  const PhaseStats stats = loadgen.run_open(source, 500.0, 0.4);
  ASSERT_EQ(stats.attempted, 200u);
  ASSERT_EQ(stats.ok, 200u);
  ASSERT_EQ(stats.latency_ms.size(), 200u);
  // Responses come back in order, so latency_ms[k] is request k's, timed
  // from its due time. Requests due during the stall waited behind it.
  EXPECT_GE(stats.latency_ms[kStallAt], kStallMs * 0.9);
  EXPECT_GE(stats.latency_ms[kStallAt + 1], kStallMs * 0.9 - 2.0);
  const auto stalled = std::count_if(stats.latency_ms.begin(), stats.latency_ms.end(),
                                     [](double ms) { return ms > 100.0; });
  EXPECT_GE(stalled, 45);  // every request due in [40 ms, 140 ms)
  // A closed loop would have sent nothing during the stall; the open loop
  // kept sending on schedule.
  std::vector<double> late = stats.late_ms;
  std::sort(late.begin(), late.end());
  EXPECT_LT(percentile_sorted(late, 0.99), 50.0);
}

// ---------------------------------------------------------------------------
// Seeded generator.

TEST(SeededInputs, SameSeedSameBytes) {
  for (const char* workload : {"fit_cold", "fit_repeat", "live_ingest", "routed_ingest"}) {
    EXPECT_EQ(input_digest(workload, 7, 4, 256), input_digest(workload, 7, 4, 256))
        << workload;
    EXPECT_NE(input_digest(workload, 7, 4, 256), input_digest(workload, 8, 4, 256))
        << workload;
  }
  FitSequence a(42);
  FitSequence b(42);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(fit_request(a.next()), fit_request(b.next()));
}

TEST(SeededInputs, PerturbationStaysBoundedAtAnyRequestIndex) {
  FitSequence sequence(3);
  for (int i = 0; i < 20000; ++i) {
    const FitSequence::Draw draw = sequence.next();
    if (i % 997 != 0) continue;
    const BaseSeries& base = base_series()[draw.input.base];
    ASSERT_EQ(draw.input.values.size(), base.values.size());
    for (std::size_t k = 0; k < base.values.size(); ++k) {
      EXPECT_LE(std::abs(draw.input.values[k] / base.values[k] - 1.0), 1.0000001e-9);
    }
  }
}

TEST(SeededInputs, EveryEpochHoldsEachCombinationOnce) {
  FitSequence sequence(5);
  const std::size_t combos = 3 * kFamilyCount * base_series().size();
  std::set<std::tuple<int, std::size_t, std::size_t>> seen;
  for (std::size_t i = 0; i < combos; ++i) {
    const FitSequence::Draw draw = sequence.next();
    seen.emplace(draw.route, draw.input.family, draw.input.base);
  }
  EXPECT_EQ(seen.size(), combos);
}

TEST(SeededInputs, StreamTimesStrictlyIncrease) {
  StreamWalker walker(9, 17);
  double last = -1.0;
  for (int i = 0; i < 10000; ++i) {
    const auto [t, v] = walker.next();
    ASSERT_GT(t, last);
    ASSERT_TRUE(std::isfinite(v) && v > 0.0);
    last = t;
  }
}

// ---------------------------------------------------------------------------
// Printed names against BENCHMARK.json.

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void expect_same_names(const prm::serve::Json& listed, const MetricName* names,
                       std::size_t count, const char* section) {
  ASSERT_TRUE(listed.is_array()) << section;
  ASSERT_EQ(listed.as_array().size(), count) << section;
  for (std::size_t i = 0; i < count; ++i) {
    const prm::serve::Json& entry = listed.as_array()[i];
    EXPECT_EQ(prm::serve::json_string_or(entry, "name", ""), names[i].name) << section;
    EXPECT_EQ(prm::serve::json_string_or(entry, "unit", ""), names[i].unit) << section;
  }
}

TEST(MetricNames, MatchTheAllowedAlphabetAndAreUnique) {
  const std::regex allowed("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  std::set<std::string_view> seen;
  for (const MetricName& m : kEndToEnd) {
    EXPECT_TRUE(std::regex_match(std::string(m.name), allowed)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name;
  }
  for (const MetricName& m : kPerLayer) {
    EXPECT_TRUE(std::regex_match(std::string(m.name), allowed)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name;
  }
}

TEST(MetricNames, MatchBenchmarkJson) {
  const std::string text = read_file(PRMBENCH_JSON);
  ASSERT_FALSE(text.empty()) << "cannot read " << PRMBENCH_JSON;
  const prm::serve::Json json = prm::serve::Json::parse(text);
  expect_same_names(*json.find("end_to_end"), kEndToEnd, std::size(kEndToEnd), "end_to_end");
  expect_same_names(*json.find("per_layer"), kPerLayer, std::size(kPerLayer), "per_layer");
  std::set<std::string> workloads;
  for (const prm::serve::Json& w : json.find("workloads")->as_array()) {
    workloads.insert(prm::serve::json_string_or(w, "name", ""));
  }
  EXPECT_EQ(workloads, (std::set<std::string>{"fit_cold", "routed_ingest"}));
}

}  // namespace
}  // namespace prmbench
