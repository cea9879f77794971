// Seeded request generators for the four workloads. Everything the server
// receives comes from here; the same seed gives the same request bytes.
//
//  * Fit-shaped inputs: the seven recessions plus generated V/U/W/L shapes,
//    crossed with the paper's six model families and the three fit routes.
//    Each request's values are scaled by (1 + u * 1e-9) with u uniform in
//    [-1, 1] drawn per value: unique cache keys, the same optimisation
//    problem, and a perturbation that never grows with the request index.
//  * Ingest streams: each stream walks seeded recession-shaped events
//    (a scaled recession profile, then a nominal gap, then the next event).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"

namespace prmbench {

/// Route classes; also Outgoing::kind.
enum Kind : std::uint8_t {
  kFit = 0,
  kForecast = 1,
  kMetrics = 2,
  kIngest = 3,
  kIngestBatch = 4,
  kStreamGet = 5,
};

/// Route label used in per-layer metric names (app.handle_us.<label>).
std::string_view kind_label(Kind kind);

/// POST target of a fit route.
std::string_view fit_target(Kind kind);

/// The paper's six model families (the nn family is an extension and stays out).
inline constexpr std::string_view kFamilies[] = {
    "quadratic",       "competing-risks",  "mix-exp-exp-log",
    "mix-exp-wei-log", "mix-wei-exp-log", "mix-wei-wei-log"};
inline constexpr std::size_t kFamilyCount = std::size(kFamilies);

/// One base series of the fit catalogue.
struct BaseSeries {
  std::string name;
  std::vector<double> times;
  std::vector<double> values;
  std::size_t holdout = 0;
};

/// The seven recessions, then generated V, U, W and L shapes (fixed seeds:
/// the run seed varies order and perturbation, not the shapes).
const std::vector<BaseSeries>& base_series();

/// A fit-shaped input: one base series, perturbed, and a model family.
struct FitInput {
  std::size_t base = 0;
  std::size_t family = 0;
  std::vector<double> values;  ///< Perturbed; times and holdout are the base's.
};

/// JSON body of a fit-route request for `input`.
std::string fit_body(const FitInput& input);

/// Infinite, seeded sequence of (route, input) draws. Every epoch is a
/// fresh shuffle of all route x family x base combinations, so each epoch
/// holds every combination exactly once (equal shares at any run length).
class FitSequence {
 public:
  explicit FitSequence(std::uint64_t seed);

  struct Draw {
    Kind route = kFit;
    FitInput input;
  };
  Draw next();

 private:
  Rng rng_;
  std::vector<std::uint32_t> epoch_;
  std::size_t position_ = 0;
};

/// Request bytes of a fit-sequence draw.
std::string fit_request(const FitSequence::Draw& draw);

/// fit_repeat's fixed catalogue: 128 fit inputs, 3 routes each.
inline constexpr std::size_t kRepeatSeries = 128;
inline constexpr std::size_t kRepeatKeys = 3 * kRepeatSeries;

struct RepeatCatalogue {
  std::vector<FitInput> inputs;     ///< kRepeatSeries entries.
  std::vector<std::string> wires;   ///< kRepeatKeys request bytes; key = route * 128 + i.
};
RepeatCatalogue make_repeat_catalogue(std::uint64_t seed);

/// The generator of fit_repeat's request keys (uniform over kRepeatKeys).
inline Rng repeat_key_rng(std::uint64_t seed) { return Rng(mix_seed(seed, 0x6b)); }

/// Ingest traffic shape.
inline constexpr std::size_t kStreams = 256;
inline constexpr std::size_t kBatchSamples = 16;

/// Stream name for stream index `s` ("s017").
std::string stream_name(std::size_t s);

/// One stream's seeded sample walk: strictly increasing integer times,
/// recession-shaped events separated by nominal gaps.
class StreamWalker {
 public:
  StreamWalker(std::uint64_t seed, std::size_t stream);

  /// Next (t, value).
  std::pair<double, double> next();

 private:
  void start_event();

  Rng rng_;
  double t_ = 0.0;
  double level_ = 1.0;
  double amplitude_ = 1.0;
  std::span<const double> profile_;  ///< Into the static recession catalogue.
  std::size_t position_ = 0;
  double last_shape_ = 1.0;  ///< Shape of the latest event sample.
  std::size_t gap_left_ = 0;
};

/// Per-connection ingest cycle over a connection's streams: ingest-batch
/// (16 samples), single ingest, GET, then the next stream.
class IngestSequence {
 public:
  IngestSequence(std::uint64_t seed, std::size_t connections);

  /// Next request of connection `conn`. `stream` and `kind` describe it;
  /// `samples` is 16, 1 or 0.
  struct Step {
    Kind kind = kIngest;
    std::size_t stream = 0;
    std::uint32_t samples = 0;
  };
  Step next(std::size_t conn, std::string& wire);

  /// The creation request for stream `s` (its first sample, single ingest).
  std::string create(std::size_t s);

 private:
  std::string ingest_wire(std::size_t s, std::size_t count);

  std::vector<StreamWalker> walkers_;
  std::vector<std::uint64_t> cursors_;  ///< Per-connection step counter.
};

/// Digest of the first `count` requests a workload generates for `seed`
/// (per connection in connection order for ingest workloads).
std::string input_digest(std::string_view workload, std::uint64_t seed,
                         std::size_t connections, std::size_t count = 1024);

}  // namespace prmbench
