#include "sources.hpp"

#include <cmath>

#include "common.hpp"
#include "wire.hpp"

namespace prmbench {

std::string normalise_cache_label(std::string_view body) {
  std::string out(body);
  static constexpr std::string_view kMiss = "\"cache\":\"miss\"";
  static constexpr std::string_view kHit = "\"cache\":\"hit\"";
  if (const std::size_t pos = out.find(kMiss); pos != std::string::npos) {
    out.replace(pos, kMiss.size(), kHit);
  }
  return out;
}

namespace {

std::string status_text(int status) {
  return status < 0 ? std::string("transport failure") : "status " + std::to_string(status);
}

}  // namespace

// ---------------------------------------------------------------------------

FitColdSource::FitColdSource(std::uint64_t seed, CheckLog& checks)
    : sequence_(seed), checks_(checks) {}

bool FitColdSource::next(std::size_t, Outgoing& out) {
  FitSequence::Draw draw = sequence_.next();
  wire_ = fit_request(draw);
  // Perturbed bodies are unique with overwhelming odds; make it certain.
  while (!digests_.insert(fnv1a(wire_)).second) {
    draw = sequence_.next();
    wire_ = fit_request(draw);
  }
  out.wire = wire_;
  out.tag = issued_++;
  out.kind = draw.route;
  out.samples = static_cast<std::uint32_t>(draw.input.values.size());
  if (draw.route == kFit && fit_routes_++ % 8 == 0 &&
      sampled_.size() + pending_samples_.size() < 24) {
    pending_samples_.emplace(out.tag, std::move(draw.input));
  }
  return true;
}

void FitColdSource::complete(std::size_t, const Outgoing& request, int status,
                             std::string_view body, Clock::time_point) {
  const auto pending = pending_samples_.find(request.tag);
  if (status < 200 || status >= 300) {
    checks_.fail("fit_cold: " + std::string(fit_target(static_cast<Kind>(request.kind))) +
                 " answered " + status_text(status) + ": " + std::string(body.substr(0, 200)));
    if (pending != pending_samples_.end()) pending_samples_.erase(pending);
    return;
  }
  if (request.kind == kFit) {
    const auto parameters = number_array_field(body, "parameter_vector");
    bool finite = parameters.has_value() && !parameters->empty();
    if (finite) {
      for (const double p : *parameters) finite = finite && std::isfinite(p);
    }
    if (!finite) checks_.fail("fit_cold: /v1/fit response without finite parameters");
  }
  if (pending != pending_samples_.end()) {
    sampled_.push_back(Sampled{std::move(pending->second), std::string(body)});
    pending_samples_.erase(pending);
  }
}

// ---------------------------------------------------------------------------

FitRepeatSource::FitRepeatSource(const RepeatCatalogue& catalogue, std::uint64_t seed,
                                 CheckLog& checks)
    : catalogue_(catalogue), keys_(repeat_key_rng(seed)), checks_(checks),
      first_(kRepeatKeys) {}

bool FitRepeatSource::next(std::size_t, Outgoing& out) {
  std::size_t key = 0;
  if (priming_) {
    if (prime_cursor_ == kRepeatKeys) return false;
    key = prime_cursor_++;
  } else {
    key = static_cast<std::size_t>(keys_.below(kRepeatKeys));
  }
  out.wire = catalogue_.wires[key];
  out.tag = static_cast<std::uint32_t>(key);
  out.kind = static_cast<std::uint8_t>(key / kRepeatSeries);
  out.samples =
      static_cast<std::uint32_t>(catalogue_.inputs[key % kRepeatSeries].values.size());
  return true;
}

void FitRepeatSource::complete(std::size_t, const Outgoing& request, int status,
                               std::string_view body, Clock::time_point) {
  if (status < 200 || status >= 300) {
    checks_.fail("fit_repeat: key " + std::to_string(request.tag) + " answered " +
                 status_text(status));
    return;
  }
  std::string normalised = normalise_cache_label(body);
  std::string& first = first_[request.tag];
  if (first.empty()) {
    first = std::move(normalised);
  } else if (normalised != first) {
    checks_.fail("fit_repeat: key " + std::to_string(request.tag) +
                 " answered differently from its first response");
  }
}

// ---------------------------------------------------------------------------

IngestSource::IngestSource(std::uint64_t seed, std::size_t connections, CheckLog& checks)
    : sequence_(seed, connections),
      checks_(checks),
      per_conn_(kStreams / connections),
      created_(connections, 0),
      acked_(kStreams, 0),
      uncovered_(kStreams, false),
      uncovered_since_(kStreams),
      uncovered_baseline_(kStreams, 0.0),
      last_refits_(kStreams, 0.0) {}

bool IngestSource::next(std::size_t conn, Outgoing& out) {
  if (creating_) {
    if (created_[conn] == per_conn_) return false;
    const std::size_t stream = conn * per_conn_ + created_[conn]++;
    wire_ = sequence_.create(stream);
    out.wire = wire_;
    out.tag = static_cast<std::uint32_t>(stream);
    out.kind = kIngest;
    out.samples = 1;
    return true;
  }
  const IngestSequence::Step step = sequence_.next(conn, wire_);
  out.wire = wire_;
  out.tag = static_cast<std::uint32_t>(step.stream);
  out.kind = step.kind;
  out.samples = step.samples;
  return true;
}

void IngestSource::complete(std::size_t, const Outgoing& request, int status,
                            std::string_view body, Clock::time_point at) {
  const std::size_t stream = request.tag;
  if (status < 200 || status >= 300) {
    checks_.fail("ingest: " + std::string(kind_label(static_cast<Kind>(request.kind))) +
                 " on " + stream_name(stream) + " answered " + status_text(status) + ": " +
                 std::string(body.substr(0, 200)));
    return;
  }
  if (request.kind == kStreamGet) {
    const std::optional<double> refits = number_field(body, "total");
    if (!refits) {
      checks_.fail("ingest: GET " + stream_name(stream) + " without refits.total");
      return;
    }
    if (track_lag_ && uncovered_[stream] && *refits > uncovered_baseline_[stream]) {
      lag_ms_.push_back(ms_between(uncovered_since_[stream], at));
      uncovered_[stream] = false;
    }
    last_refits_[stream] = *refits;
    return;
  }
  acked_[stream] += request.samples;
  if (track_lag_ && !uncovered_[stream] && bool_field_true(body, "event_active")) {
    uncovered_[stream] = true;
    uncovered_since_[stream] = at;
    uncovered_baseline_[stream] = last_refits_[stream];
  }
}

}  // namespace prmbench
