#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "data/generator.hpp"
#include "data/recessions.hpp"
#include "wire.hpp"

namespace prmbench {

std::string_view kind_label(Kind kind) {
  switch (kind) {
    case kFit: return "fit";
    case kForecast: return "forecast";
    case kMetrics: return "metrics";
    case kIngest: return "ingest";
    case kIngestBatch: return "ingest-batch";
    case kStreamGet: return "stream_get";
  }
  return "unknown";
}

std::string_view fit_target(Kind kind) {
  switch (kind) {
    case kForecast: return "/v1/forecast";
    case kMetrics: return "/v1/metrics";
    default: return "/v1/fit";
  }
}

const std::vector<BaseSeries>& base_series() {
  static const std::vector<BaseSeries> catalogue = [] {
    std::vector<BaseSeries> out;
    for (const prm::data::RecessionDataset& r : prm::data::recession_catalog()) {
      const auto times = r.series.times();
      const auto values = r.series.values();
      out.push_back(BaseSeries{r.series.name(), {times.begin(), times.end()},
                               {values.begin(), values.end()}, r.holdout});
    }
    const prm::data::RecessionShape shapes[] = {
        prm::data::RecessionShape::kV, prm::data::RecessionShape::kU,
        prm::data::RecessionShape::kW, prm::data::RecessionShape::kL};
    std::uint64_t shape_seed = 101;
    for (const prm::data::RecessionShape shape : shapes) {
      const prm::data::PerformanceSeries s =
          prm::data::generate_shape(shape, 48, shape_seed++);
      const auto times = s.times();
      const auto values = s.values();
      out.push_back(BaseSeries{"shape-" + std::string(prm::data::to_string(shape)),
                               {times.begin(), times.end()},
                               {values.begin(), values.end()},
                               std::max<std::size_t>(s.size() / 10, 1)});
    }
    return out;
  }();
  return catalogue;
}

std::string fit_body(const FitInput& input) {
  const BaseSeries& base = base_series()[input.base];
  std::string body;
  body.reserve(64 + 24 * (base.times.size() + input.values.size()));
  body += "{\"holdout\":";
  append_uint(body, base.holdout);
  body += ",\"model\":\"";
  body += kFamilies[input.family];
  body += "\",\"series\":{\"times\":[";
  for (std::size_t i = 0; i < base.times.size(); ++i) {
    if (i > 0) body += ',';
    append_double(body, base.times[i]);
  }
  body += "],\"values\":[";
  for (std::size_t i = 0; i < input.values.size(); ++i) {
    if (i > 0) body += ',';
    append_double(body, input.values[i]);
  }
  body += "]}}";
  return body;
}

namespace {

/// Relative perturbation bound for fit-shaped inputs.
constexpr double kPerturbation = 1e-9;

FitInput perturbed(Rng& rng, std::size_t base, std::size_t family) {
  FitInput input;
  input.base = base;
  input.family = family;
  const std::vector<double>& values = base_series()[base].values;
  input.values.reserve(values.size());
  for (const double v : values) {
    input.values.push_back(v * (1.0 + kPerturbation * rng.uniform(-1.0, 1.0)));
  }
  return input;
}

}  // namespace

FitSequence::FitSequence(std::uint64_t seed) : rng_(mix_seed(seed, 0xf17)) {}

FitSequence::Draw FitSequence::next() {
  const std::size_t bases = base_series().size();
  if (position_ == epoch_.size()) {
    const std::size_t combos = 3 * kFamilyCount * bases;
    epoch_.resize(combos);
    for (std::size_t i = 0; i < combos; ++i) epoch_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = combos - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(epoch_[i], epoch_[rng_.below(i + 1)]);
    }
    position_ = 0;
  }
  const std::uint32_t combo = epoch_[position_++];
  Draw draw;
  draw.route = static_cast<Kind>(combo % 3);
  const std::size_t rest = combo / 3;
  draw.input = perturbed(rng_, rest / kFamilyCount, rest % kFamilyCount);
  return draw;
}

std::string fit_request(const FitSequence::Draw& draw) {
  return http_request("POST", fit_target(draw.route), fit_body(draw.input));
}

RepeatCatalogue make_repeat_catalogue(std::uint64_t seed) {
  RepeatCatalogue catalogue;
  FitSequence sequence(mix_seed(seed, 0x4e9));
  while (catalogue.inputs.size() < kRepeatSeries) {
    catalogue.inputs.push_back(sequence.next().input);
  }
  catalogue.wires.resize(kRepeatKeys);
  for (std::size_t route = 0; route < 3; ++route) {
    for (std::size_t i = 0; i < kRepeatSeries; ++i) {
      catalogue.wires[route * kRepeatSeries + i] =
          http_request("POST", fit_target(static_cast<Kind>(route)),
                       fit_body(catalogue.inputs[i]));
    }
  }
  return catalogue;
}

std::string stream_name(std::size_t s) {
  std::string name = "s000";
  name[1] = static_cast<char>('0' + (s / 100) % 10);
  name[2] = static_cast<char>('0' + (s / 10) % 10);
  name[3] = static_cast<char>('0' + s % 10);
  return name;
}

namespace {

/// Nominal samples between a stream's events.
constexpr std::uint64_t kMinGap = 5000;
constexpr std::uint64_t kMaxGap = 15000;

/// Per-sample rise of the ramp that completes a profile ending below 1.
constexpr double kRampStep = 0.005;

}  // namespace

StreamWalker::StreamWalker(std::uint64_t seed, std::size_t stream)
    : rng_(mix_seed(seed, 0x5000 + stream)) {
  // Streams start at uniformly spread points of a nominal stretch, so events
  // (and the refits they trigger) arrive at a steady rate instead of in
  // lockstep across streams.
  gap_left_ = 8 + rng_.below(kMaxGap);
}

void StreamWalker::start_event() {
  const auto& catalogue = prm::data::recession_catalog();
  profile_ = catalogue[rng_.below(catalogue.size())].series.values();
  amplitude_ = rng_.uniform(0.7, 1.3);
  position_ = 0;
  last_shape_ = 1.0;
}

std::pair<double, double> StreamWalker::next() {
  double shape = 1.0;
  if (gap_left_ > 0) {
    --gap_left_;
    if (gap_left_ == 0) start_event();
  } else if (position_ < profile_.size()) {
    const double p = profile_[position_++] / profile_.front();
    shape = 1.0 + amplitude_ * (p - 1.0);
    last_shape_ = shape;
  } else if (last_shape_ < 1.0) {
    // A profile that ends short of its peak ramps back up, so every event
    // completes (RESTORED) and event buffers stay bounded.
    last_shape_ = std::min(1.0, last_shape_ + kRampStep);
    shape = last_shape_;
  } else {
    // Recovered at or above the old peak: the gap holds the new level.
    level_ *= last_shape_;
    gap_left_ = kMinGap + rng_.below(kMaxGap - kMinGap);
  }
  const double value = level_ * shape * (1.0 + 0.0005 * rng_.uniform(-1.0, 1.0));
  const std::pair<double, double> sample{t_, value};
  t_ += 1.0;
  return sample;
}

IngestSequence::IngestSequence(std::uint64_t seed, std::size_t connections)
    : cursors_(connections, 0) {
  walkers_.reserve(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) walkers_.emplace_back(seed, s);
}

std::string IngestSequence::ingest_wire(std::size_t s, std::size_t count) {
  std::string body;
  std::string target = "/v1/streams/" + stream_name(s);
  if (count == 1) {
    const auto [t, v] = walkers_[s].next();
    body += "{\"t\":";
    append_double(body, t);
    body += ",\"value\":";
    append_double(body, v);
    body += '}';
    target += "/ingest";
  } else {
    body += "{\"samples\":[";
    for (std::size_t i = 0; i < count; ++i) {
      const auto [t, v] = walkers_[s].next();
      if (i > 0) body += ',';
      body += '[';
      append_double(body, t);
      body += ',';
      append_double(body, v);
      body += ']';
    }
    body += "]}";
    target += "/ingest-batch";
  }
  return http_request("POST", target, body);
}

std::string IngestSequence::create(std::size_t s) { return ingest_wire(s, 1); }

IngestSequence::Step IngestSequence::next(std::size_t conn, std::string& wire) {
  const std::size_t per_conn = kStreams / cursors_.size();
  const std::uint64_t step = cursors_[conn]++;
  Step out;
  out.stream = conn * per_conn + (step / 3) % per_conn;
  switch (step % 3) {
    case 0:
      out.kind = kIngestBatch;
      out.samples = kBatchSamples;
      wire = ingest_wire(out.stream, kBatchSamples);
      break;
    case 1:
      out.kind = kIngest;
      out.samples = 1;
      wire = ingest_wire(out.stream, 1);
      break;
    default:
      out.kind = kStreamGet;
      wire = http_request("GET", "/v1/streams/" + stream_name(out.stream));
      break;
  }
  return out;
}

std::string input_digest(std::string_view workload, std::uint64_t seed,
                         std::size_t connections, std::size_t count) {
  std::uint64_t hash = fnv1a(workload);
  if (workload == "fit_cold") {
    FitSequence sequence(seed);
    for (std::size_t i = 0; i < count; ++i) {
      hash = fnv1a(fit_request(sequence.next()), hash);
    }
  } else if (workload == "fit_repeat") {
    const RepeatCatalogue catalogue = make_repeat_catalogue(seed);
    Rng keys = repeat_key_rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
      hash = fnv1a(catalogue.wires[keys.below(kRepeatKeys)], hash);
    }
  } else {
    IngestSequence sequence(seed, connections);
    std::string wire;
    for (std::size_t s = 0; s < kStreams; ++s) hash = fnv1a(sequence.create(s), hash);
    for (std::size_t c = 0; c < connections; ++c) {
      for (std::size_t i = 0; i < count / connections; ++i) {
        sequence.next(c, wire);
        hash = fnv1a(wire, hash);
      }
    }
  }
  return hex64(hash);
}

}  // namespace prmbench
