// Request sources for the load generator, one per workload family, with
// the correctness checks that ride on their responses.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "loadgen.hpp"
#include "workloads.hpp"

namespace prmbench {

/// First problem a check found; empty while everything checked out.
struct CheckLog {
  std::string first_failure;
  std::uint64_t failures = 0;
  void fail(const std::string& what) {
    if (failures++ == 0) first_failure = what;
  }
  bool ok() const noexcept { return failures == 0; }
};

/// fit_cold: unique fit-shaped bodies over the three fit routes. Every
/// response must be a 2xx; /v1/fit responses must carry finite parameters,
/// and a seeded sample of them is kept for the bit-identity check against
/// core::fit_model in this process.
class FitColdSource : public RequestSource {
 public:
  FitColdSource(std::uint64_t seed, CheckLog& checks);

  bool next(std::size_t conn, Outgoing& out) override;
  void complete(std::size_t conn, const Outgoing& request, int status,
                std::string_view body, Clock::time_point at) override;

  struct Sampled {
    FitInput input;
    std::string body;  ///< The /v1/fit response.
  };
  /// Sampled /v1/fit exchanges (every 8th, at most 24).
  const std::vector<Sampled>& sampled() const noexcept { return sampled_; }

 private:
  FitSequence sequence_;
  CheckLog& checks_;
  std::string wire_;
  std::uint32_t issued_ = 0;
  std::uint32_t fit_routes_ = 0;
  std::unordered_set<std::uint64_t> digests_;
  std::map<std::uint32_t, FitInput> pending_samples_;
  std::vector<Sampled> sampled_;
};

/// fit_repeat: uniform draws over the 3 x 128 catalogue keys (or, when
/// priming, every key once in order). Every repeat of a key must be
/// byte-identical to its first response apart from the cache label.
class FitRepeatSource : public RequestSource {
 public:
  FitRepeatSource(const RepeatCatalogue& catalogue, std::uint64_t seed, CheckLog& checks);

  /// Priming: the next next() calls walk every key once, then run dry.
  void start_priming() {
    priming_ = true;
    prime_cursor_ = 0;
  }
  void stop_priming() { priming_ = false; }

  bool next(std::size_t conn, Outgoing& out) override;
  void complete(std::size_t conn, const Outgoing& request, int status,
                std::string_view body, Clock::time_point at) override;

 private:
  const RepeatCatalogue& catalogue_;
  Rng keys_;
  CheckLog& checks_;
  bool priming_ = false;
  std::size_t prime_cursor_ = 0;
  std::vector<std::string> first_;  ///< Normalised first response per key.
};

/// live_ingest / routed_ingest: each connection cycles ingest-batch,
/// ingest, GET over its 64 streams. Tracks samples acknowledged per stream
/// and, when enabled, the refit lag seen from outside.
class IngestSource : public RequestSource {
 public:
  IngestSource(std::uint64_t seed, std::size_t connections, CheckLog& checks);

  /// Creation mode: each connection creates its own streams, then runs dry.
  void start_creating() { creating_ = true; }
  void stop_creating() { creating_ = false; }
  void track_refit_lag(bool on) { track_lag_ = on; }

  bool next(std::size_t conn, Outgoing& out) override;
  void complete(std::size_t conn, const Outgoing& request, int status,
                std::string_view body, Clock::time_point at) override;

  const std::vector<std::uint64_t>& acked() const noexcept { return acked_; }
  const std::vector<double>& refit_lag_ms() const noexcept { return lag_ms_; }

 private:
  IngestSequence sequence_;
  CheckLog& checks_;
  std::size_t per_conn_;
  std::string wire_;
  bool creating_ = false;
  bool track_lag_ = false;
  std::vector<std::size_t> created_;     ///< Per connection.
  std::vector<std::uint64_t> acked_;     ///< Samples acknowledged per stream.
  // Refit lag: per stream, the ack time of the first in-event ingest no
  // observed refit covers yet, and the refit count seen before it.
  std::vector<bool> uncovered_;
  std::vector<Clock::time_point> uncovered_since_;
  std::vector<double> uncovered_baseline_;
  std::vector<double> last_refits_;
  std::vector<double> lag_ms_;
};

/// The response with its cache label normalised ("miss" -> "hit").
std::string normalise_cache_label(std::string_view body);

}  // namespace prmbench
