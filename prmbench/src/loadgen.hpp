// The load generator: ONE thread driving a few keep-alive connections with
// epoll, in two modes.
//
//  * Closed loop: each connection keeps exactly one request in flight and
//    sends the next when the response arrives. Gives throughput.
//  * Open loop: request k is due at start + k / rate on connection
//    k mod connections, whether or not earlier responses came back; a late
//    response makes the next request pipeline behind it on the same
//    connection. Latency is timed from the DUE time, so a server stall is
//    charged to every request scheduled during it (no coordinated omission),
//    and the generator's own lateness (send - due) is recorded as the
//    validity guard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace prmbench {

/// One request handed to the generator. `wire` is copied before next()
/// is called again.
struct Outgoing {
  std::string_view wire;
  std::uint32_t tag = 0;      ///< Caller-defined, handed back on completion.
  std::uint8_t kind = 0;      ///< Route class, for per-route latency.
  std::uint32_t samples = 0;  ///< Data samples the request carries.
};

/// Produces requests and consumes their responses. Called only from the
/// generator thread.
class RequestSource {
 public:
  virtual ~RequestSource() = default;

  /// Fill `out` with the next request for connection `conn`; false when the
  /// source has nothing more for it.
  virtual bool next(std::size_t conn, Outgoing& out) = 0;

  /// The response to a request from next(): `status` < 0 means the request
  /// failed in transport (reset, timeout). `at` is when it completed.
  virtual void complete(std::size_t conn, const Outgoing& request, int status,
                        std::string_view body, Clock::time_point at) = 0;
};

inline constexpr std::size_t kKinds = 8;

struct PhaseStats {
  double seconds = 0.0;  ///< First send to last completion.
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;      ///< 2xx responses.
  std::uint64_t failed = 0;  ///< Non-2xx, reset or timed out.
  std::uint64_t samples_ok = 0;
  std::uint64_t resp_bytes = 0;    ///< Body bytes of 2xx responses.
  std::vector<double> latency_ms;  ///< 2xx responses only, in completion order.
  std::vector<double> done_s;      ///< Their completion times from phase start.
  std::vector<std::uint32_t> done_samples;  ///< Their samples carried.
  std::vector<double> late_ms;     ///< Open loop: send time - due time.
  std::uint64_t within_limit = 0;  ///< 2xx responses within the latency limit.
  std::uint64_t kind_count[kKinds] = {};  ///< 2xx responses per route class.
};

/// Median over whole `window_s` windows of the phase of (2xx responses or,
/// with `samples`, samples acknowledged) per second.
double median_window_rate(const PhaseStats& stats, double window_s, bool samples);

/// Median over consecutive chunks of at least 1000 latencies (completion
/// order) of each chunk's `q` percentile: a stall inside the phase moves a
/// few chunks, not the result. Needs >= 1000 latencies.
double median_chunk_percentile(const std::vector<double>& latency_ms, double q);

struct LoadGenOptions {
  std::uint16_t port = 0;
  std::size_t connections = 4;
  double latency_limit_ms = 0.0;     ///< For PhaseStats::within_limit.
  /// Poll without sleeping: a sleeping generator adds its own wake-up
  /// latency to every sub-millisecond response it times. Costs one CPU.
  bool busy_poll = false;
};

class LoadGen {
 public:
  explicit LoadGen(LoadGenOptions options) : options_(options) {}

  /// Closed loop for `seconds`, then wait for the requests in flight.
  PhaseStats run_closed(RequestSource& source, double seconds);

  /// Open loop at `rate` requests/s for `seconds`, then wait for the
  /// requests in flight.
  PhaseStats run_open(RequestSource& source, double rate, double seconds);

 private:
  PhaseStats run(RequestSource& source, bool open, double rate, double seconds);

  LoadGenOptions options_;
};

}  // namespace prmbench
