#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/fitting.hpp"
#include "core/forecast.hpp"
#include "core/metrics.hpp"
#include "core/model.hpp"
#include "core/predictor.hpp"
#include "core/validation.hpp"
#include "live/monitor.hpp"
#include "serve/fit_cache.hpp"
#include "serve/handlers.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/response_cache.hpp"
#include "stats.hpp"
#include "wal/log.hpp"
#include "wal/record.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace prmbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer

Tracer::Scope::Scope(Tracer* tracer, std::uint32_t name) : tracer_(tracer) {
  if (!tracer_->recording_) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.request = tracer_->request_;
  span.start_ns = now_ns();
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_->open_.pop_back();
}

void Tracer::Scope::count(int slot, std::int64_t value) {
  if (index_ >= 0) tracer_->spans_[static_cast<std::size_t>(index_)].counts[slot] += value;
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::map<std::string, Tracer::Aggregate> Tracer::aggregate() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    }
  }
  std::map<std::string, Aggregate> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Aggregate& agg = out[names_[span.name]];
    const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    ++agg.count;
    agg.total_us += us;
    agg.self_us += us - child_us[i];
    for (int c = 0; c < 4; ++c) agg.counts[c] += span.counts[c];
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return;
  out << "{\"fields\":[\"name\",\"parent\",\"request\",\"start_ns\",\"end_ns\","
         "\"count0\",\"count1\",\"count2\",\"count3\"],\"names\":[";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out << (i ? "," : "") << '"' << names_[i] << '"';
  }
  out << "],\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << '[' << s.name << ',' << s.parent << ',' << s.request
        << ',' << s.start_ns << ',' << s.end_ns << ',' << s.counts[0] << ','
        << s.counts[1] << ',' << s.counts[2] << ',' << s.counts[3] << ']';
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Replays

namespace {

namespace core = prm::core;
namespace serve = prm::serve;

/// Keeps results observable so no call is optimised away.
double g_sink = 0.0;

Kind route_of(std::string_view target) {
  if (target == "/v1/fit") return kFit;
  if (target == "/v1/forecast") return kForecast;
  if (target == "/v1/metrics") return kMetrics;
  if (target.size() > 13 && target.substr(target.size() - 13) == "/ingest-batch") {
    return kIngestBatch;
  }
  if (target.size() > 7 && target.substr(target.size() - 7) == "/ingest") return kIngest;
  return kStreamGet;
}

std::string span_name(std::string_view prefix, std::string_view label) {
  std::string out(prefix);
  out += label;
  return out;
}

/// Stream name of a /v1/streams/{name}[/suffix] target.
std::string stream_of(std::string_view target) {
  std::string_view rest = target.substr(std::string_view("/v1/streams/").size());
  return std::string(rest.substr(0, rest.find('/')));
}

serve::http::Request parse_traced(Tracer& tracer, const std::string& wire) {
  serve::http::RequestParser parser;
  {
    auto span = tracer.span("http.parse");
    parser.feed(wire);
  }
  if (!parser.done()) throw std::runtime_error("traced replay: request did not parse");
  return parser.release_request();
}

serve::http::Response handle_traced(Tracer& tracer, serve::App& app,
                                    const serve::http::Request& request, Kind route) {
  serve::http::Response response;
  {
    auto span = tracer.span(span_name("app.handle.", kind_label(route)));
    response = app.handle(request);
  }
  if (response.status != 200) {
    throw std::runtime_error("traced replay: " + request.target + " answered " +
                             std::to_string(response.status) + ": " + response.body);
  }
  return response;
}

struct FitMirror {
  explicit FitMirror(const serve::AppOptions& options)
      : fit_cache(options.cache_capacity, options.cache_shards),
        response_cache(options.cache_capacity, options.cache_shards) {}
  serve::FitCache fit_cache;
  serve::ResponseCache response_cache;
  /// First successful fit per family, for the kernel timings.
  std::shared_ptr<const core::FitResult> family_fit[kFamilyCount];
};

std::size_t family_index(const std::string& model) {
  for (std::size_t f = 0; f < kFamilyCount; ++f) {
    if (kFamilies[f] == model) return f;
  }
  throw std::runtime_error("traced replay: unexpected model " + model);
}

/// The fit-route request through the public pieces App::handle composes.
void compose_fit(Tracer& tracer, FitMirror& mirror, const serve::http::Request& request,
                 Kind route, const std::string& response_body, int fit_threads) {
  auto compose = tracer.span(span_name("app.compose.", kind_label(route)));
  {
    auto span = tracer.span("response_cache.lookup");
    if (mirror.response_cache.lookup(request.target, request.body)) return;
  }
  serve::Json body;
  {
    auto span = tracer.span("json.parse.fit_body");
    body = serve::Json::parse(request.body);
  }
  // The handler's own decoding: not a public piece, so it stays self time.
  const serve::Json& series_json = *body.find("series");
  prm::data::PerformanceSeries series("series",
                                      serve::json_number_array(series_json, "times"),
                                      serve::json_number_array(series_json, "values"));
  const std::string model = serve::json_string_or(body, "model", "competing-risks");
  const auto holdout = static_cast<std::size_t>(serve::json_number(body, "holdout"));
  core::FitOptions fit_options;
  fit_options.multistart.threads = fit_threads;

  std::shared_ptr<const core::FitResult> fit;
  serve::FitCacheKey key;
  {
    auto span = tracer.span("fit_cache.lookup");
    key = serve::make_fit_cache_key(series, model, holdout, fit_options);
    fit = mirror.fit_cache.lookup(key);
  }
  if (!fit) {
    const std::size_t family = family_index(model);
    auto span = tracer.span(span_name("fit.", model));
    auto result = std::make_shared<core::FitResult>(
        core::fit_model(model, series, holdout, fit_options));
    span.count(0, result->starts_tried);
    span.count(1, result->iterations);
    span.count(2, result->function_evaluations);
    span.count(3, static_cast<std::int64_t>(result->function_evaluations) *
                      static_cast<std::int64_t>(result->fit_count()));
    if (result->success()) {
      mirror.fit_cache.insert(key, result);
      if (!mirror.family_fit[family]) mirror.family_fit[family] = result;
    }
    fit = std::move(result);
  }
  {
    auto span = tracer.span(span_name("core.", kind_label(route)));
    if (route == kFit) {
      const core::ValidationReport report = core::validate(*fit);
      g_sink += report.sse + core::predict_trough_time(*fit) +
                core::predict_trough_value(*fit) +
                core::predict_recovery_time(*fit, series.value(0)).value_or(0.0);
    } else if (route == kForecast) {
      g_sink += core::forecast_horizon(*fit, 12, 0.0, 0.05).sigma2;
    } else {
      g_sink += core::predictive_metrics(*fit, core::MetricOptions{}).front().predicted;
    }
  }
  // Keep the mirror cache in step with the App's (untimed bookkeeping).
  mirror.response_cache.insert(request.target, request.body,
                               std::make_shared<const std::string>(response_body));
}

/// Replays `wires`; the first `unrecorded` requests (fit_repeat's priming)
/// run with span recording off and outside the returned time.
double replay_fit(const std::vector<std::string>& wires, std::size_t unrecorded,
                  Tracer& tracer, int fit_threads, FitMirror* keep) {
  serve::AppOptions options;
  options.fit_threads = fit_threads;
  serve::App app(options);
  FitMirror mirror(options);
  const bool recording = tracer.recording();
  Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < wires.size(); ++i) {
    const std::string& wire = wires[i];
    tracer.set_recording(recording && i >= unrecorded);
    if (i == unrecorded) start = Clock::now();
    tracer.begin_request();
    auto root = tracer.span("request");
    const serve::http::Request request = parse_traced(tracer, wire);
    const Kind route = route_of(request.target);
    const serve::http::Response response = handle_traced(tracer, app, request, route);
    compose_fit(tracer, mirror, request, route, response.body, fit_threads);
  }
  const double seconds = seconds_between(start, Clock::now());
  if (keep) {
    for (std::size_t f = 0; f < kFamilyCount; ++f) keep->family_fit[f] = mirror.family_fit[f];
  }
  return seconds;
}

struct IngestDirs {
  std::string app;
  std::string mirror;
};

double replay_ingest(const std::vector<std::string>& wires, Tracer& tracer,
                     const IngestDirs& dirs) {
  serve::AppOptions options;
  options.monitor.wal.dir = dirs.app;
  serve::App app(options);
  prm::live::MonitorOptions mirror_options;
  mirror_options.wal.dir = dirs.mirror;
  mirror_options.batched_refits = true;  // refits run in the traced refit.batch spans
  prm::live::Monitor mirror(mirror_options);

  const Clock::time_point start = Clock::now();
  std::size_t since_refit = 0;
  auto refit_batch = [&] {
    auto span = tracer.span("refit.batch");
    span.count(0, static_cast<std::int64_t>(mirror.refit_batch()));
  };
  for (const std::string& wire : wires) {
    tracer.begin_request();
    {
      auto root = tracer.span("request");
      const serve::http::Request request = parse_traced(tracer, wire);
      const Kind route = route_of(request.target);
      handle_traced(tracer, app, request, route);
      auto compose = tracer.span(span_name("app.compose.", kind_label(route)));
      const std::string name = stream_of(request.target);
      if (route == kIngestBatch) {
        serve::Json body;
        {
          auto span = tracer.span("json.parse.batch_body");
          body = serve::Json::parse(request.body);
        }
        std::vector<std::pair<double, double>> samples;
        for (const serve::Json& pair : body.find("samples")->as_array()) {
          samples.emplace_back(pair.as_array()[0].as_number(),
                               pair.as_array()[1].as_number());
        }
        {
          auto span = tracer.span("monitor.ingest_batch");
          g_sink += static_cast<double>(mirror.ingest_batch(name, samples).size());
        }
      } else if (route == kIngest) {
        serve::Json body;
        {
          auto span = tracer.span("json.parse.ingest_body");
          body = serve::Json::parse(request.body);
        }
        auto span = tracer.span("monitor.ingest");
        g_sink += static_cast<double>(
            mirror.ingest(name, serve::json_number(body, "t"),
                          serve::json_number(body, "value"))
                .size());
      }
      auto span = tracer.span("monitor.snapshot");
      g_sink += static_cast<double>(mirror.snapshot(name).samples_seen);
    }
    if (++since_refit == 64) {
      since_refit = 0;
      refit_batch();
    }
  }
  refit_batch();
  return seconds_between(start, Clock::now());
}

/// Fresh scratch directory under `base`.
std::string fresh_dir(const std::string& base, const std::string& name) {
  const std::string path = base + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

/// Times `body` over enough repetitions to take ~20 ms; ns per call.
template <typename Fn>
double time_per_call_ns(Fn&& body) {
  std::size_t reps = 16;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    if (ns > 2e7 || reps > (1u << 24)) return ns / static_cast<double>(reps);
    reps *= 4;
  }
}

void print_layers(const Tracer& tracer, const std::string& workload) {
  std::fprintf(stderr, "traced run (%s): per-span calls, mean and self time\n",
               workload.c_str());
  std::fprintf(stderr, "  %-28s %8s %12s %12s\n", "span", "calls", "mean_us", "self_us");
  for (const auto& [name, agg] : tracer.aggregate()) {
    std::fprintf(stderr, "  %-28s %8llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(agg.count), agg.mean_us(),
                 agg.mean_self_us());
  }
}

/// Fit-workload request prefix: the first requests the workload sends.
/// For fit_repeat the priming comes first; `unrecorded` is its length.
std::vector<std::string> fit_prefix(const std::string& workload, std::uint64_t seed,
                                    std::size_t& unrecorded) {
  std::vector<std::string> wires;
  unrecorded = 0;
  if (workload == "fit_cold") {
    FitSequence sequence(seed);
    for (std::size_t i = 0; i < 96; ++i) {
      const FitSequence::Draw draw = sequence.next();
      wires.push_back(fit_request(draw));
    }
  } else {
    const RepeatCatalogue catalogue = make_repeat_catalogue(seed);
    wires = catalogue.wires;  // priming, in order
    unrecorded = wires.size();
    Rng keys = repeat_key_rng(seed);
    for (std::size_t i = 0; i < 2048; ++i) {
      wires.push_back(catalogue.wires[keys.below(kRepeatKeys)]);
    }
  }
  return wires;
}

/// Ingest prefix: the 256 stream creations, then connection 0's first 120
/// visits to each of its 64 streams (2040 samples per stream: long enough
/// for some streams to reach an event, so the replay refits).
std::vector<std::string> ingest_prefix(std::uint64_t seed) {
  constexpr std::size_t kConnections = 4;
  constexpr std::size_t kVisits = 120;
  IngestSequence sequence(seed, kConnections);
  std::vector<std::string> wires;
  for (std::size_t s = 0; s < kStreams; ++s) wires.push_back(sequence.create(s));
  std::string wire;
  for (std::size_t i = 0; i < 3 * (kStreams / kConnections) * kVisits; ++i) {
    sequence.next(0, wire);
    wires.push_back(wire);
  }
  return wires;
}

}  // namespace

std::map<std::string, double> traced_run(const TraceConfig& config) {
  std::map<std::string, double> m;
  const bool ingest = config.workload == "live_ingest" || config.workload == "routed_ingest";
  Tracer tracer(/*recording=*/true);
  Tracer silent(/*recording=*/false);
  double on_s = 0.0;
  double off_s = 0.0;
  FitMirror kept{serve::AppOptions{}};

  if (!ingest) {
    std::size_t unrecorded = 0;
    const std::vector<std::string> wires = fit_prefix(config.workload, config.seed, unrecorded);
    off_s = replay_fit(wires, unrecorded, silent, config.fit_threads, nullptr);
    // Kernel timings use fit_cold's fits; fit_repeat only fits while priming.
    on_s = replay_fit(wires, unrecorded, tracer, config.fit_threads,
                      config.workload == "fit_cold" ? &kept : nullptr);
  } else {
    const std::vector<std::string> wires = ingest_prefix(config.seed);
    off_s = replay_ingest(wires, silent,
                          {fresh_dir(config.work_dir, "trace-off-app"),
                           fresh_dir(config.work_dir, "trace-off-mirror")});
    on_s = replay_ingest(wires, tracer,
                         {fresh_dir(config.work_dir, "trace-on-app"),
                          fresh_dir(config.work_dir, "trace-on-mirror")});
  }
  m["trace.overhead_ratio"] = off_s > 0.0 ? on_s / off_s : 0.0;

  const std::map<std::string, Tracer::Aggregate> agg = tracer.aggregate();
  auto mean_of = [&](const std::string& name) {
    const auto it = agg.find(name);
    return it == agg.end() ? 0.0 : it->second.mean_us();
  };
  m["http.parse_us"] = mean_of("http.parse");
  m["json.parse_us.fit_body"] = mean_of("json.parse.fit_body");
  m["json.parse_us.batch_body"] = mean_of("json.parse.batch_body");
  m["response_cache.lookup_us"] = mean_of("response_cache.lookup");
  m["monitor.ingest_us"] = mean_of("monitor.ingest");
  m["monitor.ingest_batch_us"] = mean_of("monitor.ingest_batch");
  m["monitor.snapshot_us"] = mean_of("monitor.snapshot");
  const Kind routes[] = {kFit, kForecast, kMetrics, kIngest, kIngestBatch, kStreamGet};
  double handle_total_us = 0.0;
  std::uint64_t handle_calls = 0;
  for (const Kind route : routes) {
    const std::string label(kind_label(route));
    const auto handle = agg.find("app.handle." + label);
    const auto compose = agg.find("app.compose." + label);
    if (handle == agg.end()) {
      m["app.handle_us." + label] = 0.0;
      m["app.self_us." + label] = 0.0;
      continue;
    }
    handle_total_us += handle->second.total_us;
    handle_calls += handle->second.count;
    m["app.handle_us." + label] = handle->second.mean_us();
    double children_us = 0.0;
    if (compose != agg.end()) {
      children_us = (compose->second.total_us - compose->second.self_us) /
                    static_cast<double>(compose->second.count);
    }
    m["app.self_us." + label] = handle->second.mean_us() - children_us;
  }
  m["app.handle_us.mean"] =
      handle_calls ? handle_total_us / static_cast<double>(handle_calls) : 0.0;

  // core + optimize + numerics: fit spans carry starts, iterations and
  // evaluated points (evaluations x fit-window points).
  double iterations = 0.0;
  double starts = 0.0;
  double fits = 0.0;
  for (std::size_t f = 0; f < kFamilyCount; ++f) {
    const std::string family(kFamilies[f]);
    const auto it = agg.find("fit." + family);
    double eval_ns = 0.0;
    double grad_ns = 0.0;
    if (const auto& fit = kept.family_fit[f]) {
      const std::vector<double> times(fit->series().times().begin(),
                                      fit->series().times().begin() +
                                          static_cast<std::ptrdiff_t>(fit->fit_count()));
      std::vector<double> out(times.size());
      prm::num::Matrix jacobian;
      const double points = static_cast<double>(times.size());
      eval_ns = time_per_call_ns([&] {
                  fit->model().eval_batch(times, fit->parameters(), out);
                  g_sink += out[0];
                }) /
                points;
      grad_ns = time_per_call_ns([&] {
                  fit->model().gradient_batch(times, fit->parameters(), &jacobian);
                  g_sink += jacobian(0, 0);
                }) /
                points;
    }
    m["kernel.eval_ns." + family] = eval_ns;
    m["kernel.grad_ns." + family] = grad_ns;
    if (it == agg.end()) {
      m["fit.ms." + family] = 0.0;
      m["fit.evals." + family] = 0.0;
      m["kernel.share." + family] = 0.0;
      continue;
    }
    const Tracer::Aggregate& a = it->second;
    const double n = static_cast<double>(a.count);
    m["fit.ms." + family] = a.mean_us() / 1e3;
    m["fit.evals." + family] = static_cast<double>(a.counts[2]) / n;
    m["kernel.share." + family] =
        a.total_us > 0.0 ? static_cast<double>(a.counts[3]) * eval_ns / (a.total_us * 1e3)
                         : 0.0;
    iterations += static_cast<double>(a.counts[1]);
    starts += static_cast<double>(a.counts[0]);
    fits += n;
  }
  m["fit.iterations"] = fits > 0.0 ? iterations / fits : 0.0;
  m["fit.starts"] = fits > 0.0 ? starts / fits : 0.0;
  auto class_mean = [&](const char* kind, std::size_t first, std::size_t last) {
    std::vector<double> values;
    for (std::size_t f = first; f < last; ++f) {
      const double v = m["kernel." + std::string(kind) + "." + std::string(kFamilies[f])];
      if (v > 0.0) values.push_back(v);
    }
    return mean(values);
  };
  m["kernel.eval_ns.bathtub"] = class_mean("eval_ns", 0, 2);
  m["kernel.eval_ns.mixture"] = class_mean("eval_ns", 2, kFamilyCount);
  m["kernel.grad_ns.bathtub"] = class_mean("grad_ns", 0, 2);
  m["kernel.grad_ns.mixture"] = class_mean("grad_ns", 2, kFamilyCount);

  // par: one mix-wei-wei-log fit at 1 thread and at the served thread count.
  m["par.speedup"] = 0.0;
  if (config.workload == "fit_cold") {
    const BaseSeries& base = base_series().front();
    const prm::data::PerformanceSeries series(base.name, base.times, base.values);
    auto fit_seconds = [&](int threads) {
      std::vector<double> runs;
      for (int r = 0; r < 5; ++r) {
        core::FitOptions options;
        options.multistart.threads = threads;
        const Clock::time_point start = Clock::now();
        g_sink += core::fit_model("mix-wei-wei-log", series, base.holdout, options).sse;
        runs.push_back(seconds_between(start, Clock::now()));
      }
      return median(runs);
    };
    const double serial = fit_seconds(1);
    const double served = fit_seconds(config.fit_threads);
    m["par.speedup"] = served > 0.0 ? serial / served : 0.0;
  }

  // live: refit.batch spans count the refits they ran.
  if (const auto it = agg.find("refit.batch"); it != agg.end() && it->second.counts[0] > 0) {
    m["refit.ms"] = it->second.total_us / 1e3 / static_cast<double>(it->second.counts[0]);
  } else {
    m["refit.ms"] = 0.0;
  }

  // wal: append/sync micro-timings with the workload's batch record shape,
  // and recovery of a copy of the run's log.
  m["wal.append_us"] = 0.0;
  m["wal.sync_us"] = 0.0;
  m["recovery.ms_per_1k_records"] = 0.0;
  if (ingest) {
    prm::wal::WalOptions wal_options;
    wal_options.dir = fresh_dir(config.work_dir, "trace-wal");
    wal_options.fsync = prm::wal::FsyncPolicy::kNever;  // syncs happen in wal.sync spans
    prm::wal::Wal wal(wal_options, 1);
    IngestSequence sequence(config.seed, 4);
    std::string wire;
    sequence.next(0, wire);  // an ingest-batch request
    const serve::Json body = serve::Json::parse(wire.substr(wire.find("\r\n\r\n") + 4));
    prm::wal::Record record;
    record.type = prm::wal::RecordType::kIngestBatch;
    record.payload = "1 1 s000 16";
    for (const serve::Json& pair : body.find("samples")->as_array()) {
      record.payload += ' ';
      append_double(record.payload, pair.as_array()[0].as_number());
      record.payload += ' ';
      append_double(record.payload, pair.as_array()[1].as_number());
    }
    for (int i = 0; i < 2048; ++i) {
      {
        auto span = tracer.span("wal.append");
        wal.append(0, record);
      }
      if (i % 64 == 63) {
        auto span = tracer.span("wal.sync");
        wal.sync_all();
      }
    }
    const std::map<std::string, Tracer::Aggregate> wal_agg = tracer.aggregate();
    m["wal.append_us"] = wal_agg.at("wal.append").mean_us();
    m["wal.sync_us"] = wal_agg.at("wal.sync").mean_us();
    if (!config.wal_copy.empty()) {
      prm::live::MonitorOptions recover_options;
      recover_options.wal.dir = config.wal_copy;
      const Clock::time_point start = Clock::now();
      std::unique_ptr<prm::live::Monitor> recovered =
          prm::live::Monitor::recover(recover_options);
      const double ms = ms_between(start, Clock::now());
      const auto records = static_cast<double>(recovered->recovery_stats().records);
      m["recovery.ms_per_1k_records"] = records > 0.0 ? ms / records * 1e3 : 0.0;
    }
  }

  print_layers(tracer, config.workload);
  if (!config.spans_path.empty()) tracer.write_json(config.spans_path);
  if (g_sink == 12345.6789) std::fprintf(stderr, " ");
  return m;
}

}  // namespace prmbench
