// The traced run: an in-process, socket-free replay of a fixed prefix of a
// workload's seeded request sequence through the layers' public entry
// points, in the order the server calls them, recording one span per call.
//
// Per request the replay records
//   request
//     http.parse            serve::http::RequestParser::feed
//     app.handle.<route>    serve::App::handle, timed whole
//     app.compose.<route>   the same request through the public pieces
//       json.parse.*        serve::Json::parse
//       response_cache.lookup, fit_cache.lookup, fit.<family>
//       (core::fit_model, with starts/iterations/evaluations), core.<route>
//       monitor.ingest / monitor.ingest_batch / monitor.snapshot
// The handler's own routing and render time is app.handle minus the
// composed public pieces. Spans live in memory and are written as JSON
// when the replay ends; self time is a span minus the part its children
// cover. End-to-end metrics never come from this run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace prmbench {

struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint32_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t counts[4] = {0, 0, 0, 0};  ///< fit spans: starts, iterations,
                                          ///< evaluations, evaluated points
};

class Tracer {
 public:
  explicit Tracer(bool recording) : recording_(recording) {}

  /// RAII span; a no-op when recording is off.
  class Scope {
   public:
    Scope(Tracer* tracer, std::uint32_t name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void count(int slot, std::int64_t value);

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  std::uint32_t intern(std::string_view name);
  Scope span(std::string_view name) { return Scope(this, intern(name)); }
  void begin_request() { ++request_; }

  bool recording() const noexcept { return recording_; }
  void set_recording(bool on) noexcept { recording_ = on; }

  struct Aggregate {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    std::int64_t counts[4] = {0, 0, 0, 0};
    double mean_us() const { return count ? total_us / static_cast<double>(count) : 0.0; }
    double mean_self_us() const {
      return count ? self_us / static_cast<double>(count) : 0.0;
    }
  };
  /// Per span name: calls, total and self time, summed counts.
  std::map<std::string, Aggregate> aggregate() const;

  /// Write every span as JSON (one object per span).
  void write_json(const std::string& path) const;

 private:
  bool recording_;
  std::uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
};

/// What the traced run needs to know about the served configuration and the
/// socket run that preceded it.
struct TraceConfig {
  std::string workload;
  std::uint64_t seed = 0;
  int fit_threads = 1;              ///< The served --fit-threads.
  std::string work_dir;             ///< Scratch for WAL directories.
  std::string wal_copy;             ///< Copy of the run's WAL (ingest), or empty.
  std::string spans_path;           ///< Where the spans are written.
};

/// Run the traced replay for `config.workload`; returns per-layer metrics
/// measured in-process (names from metric_names.hpp) and prints each
/// layer's self time to stderr.
std::map<std::string, double> traced_run(const TraceConfig& config);

}  // namespace prmbench
