#include "serve/service.hpp"

#include <fstream>
#include <optional>
#include <utility>

#include "engine/sweep.hpp"
#include "etree/scenario.hpp"
#include "obs/obs.hpp"
#include "sdft/parser.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"

namespace sdft::serve {

namespace {

/// Raw JSON literal of the request's "id" (string or number), empty when
/// absent — echoed verbatim so pipelined clients can match responses.
std::string id_literal(const json::value& root) {
  if (!root.contains("id")) return {};
  const json::value& id = root.at("id");
  if (id.is_string()) return "\"" + json::escape(id.as_string()) + "\"";
  if (id.is_number()) return json::number(id.as_number());
  throw error("serve: 'id' must be a string or a number");
}

double checked_probability(const std::string& name, double p) {
  require_model(p >= 0.0 && p <= 1.0,
                "serve: probability for '" + name + "' outside [0, 1]");
  return p;
}

/// A count or seed field (json::value::as_count).
std::size_t checked_count(const std::string& name, const json::value& v) {
  const std::optional<std::size_t> n = v.as_count();
  require_model(n.has_value(), "serve: '" + name +
                                   "' must be a non-negative integer below "
                                   "2^64");
  return *n;
}

/// Shared backend/"mc" request grammar of the analyze and sweep ops:
///   "backend": "mocus" | "mc",
///   "mc": {"method": "crude"|"forcing"|"splitting", "trajectories": N,
///          "seed": S, "batch": N, "levels": N, "replications": N}
void apply_backend_request(const json::value& root, analysis_options& opts) {
  if (root.contains("backend")) {
    const std::string& name = root.at("backend").as_string();
    require_model(parse_cutset_backend(name, opts.backend),
                  "serve: unknown backend '" + name + "'");
  }
  if (!root.contains("mc")) return;
  const json::value& mc = root.at("mc");
  require_model(mc.is_object(), "serve: 'mc' must be an object");
  if (mc.contains("method")) {
    const std::string& method = mc.at("method").as_string();
    require_model(sim::parse_mc_method(method, opts.mc.method),
                  "serve: unknown mc method '" + method + "'");
  }
  const auto count = [&](const char* name, auto& field) {
    if (mc.contains(name)) field = checked_count(name, mc.at(name));
  };
  count("trajectories", opts.mc.trajectories);
  count("seed", opts.mc.seed);
  count("batch", opts.mc.batch);
  count("levels", opts.mc.levels);
  count("replications", opts.mc.replications);
}

void write_uq_band(json::writer& w, const uncertainty_band& band) {
  w.key("uq")
      .begin_object()
      .key("mean")
      .number(band.mean)
      .key("p05")
      .number(band.p05)
      .key("p50")
      .number(band.p50)
      .key("p95")
      .number(band.p95)
      .end_object();
}

/// The per-result confidence-interval fields of an mc-backend response.
void write_mc_fields(json::writer& w, const sim::mc_result& mc) {
  w.key("mc_method").string(sim::to_string(mc.method));
  w.key("ci_low").number(mc.ci_low);
  w.key("ci_high").number(mc.ci_high);
  w.key("ci_half_width").number(mc.ci_half_width);
  w.key("relative_error").number(mc.relative_error);
  w.key("trajectories").integer(mc.trajectories);
  w.key("failures").integer(mc.failures);
}

}  // namespace

analysis_service::analysis_service(analysis_options engine_options)
    : engine_(std::move(engine_options)) {}

void analysis_service::load_file(const std::string& name,
                                 const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw error("serve: cannot open model file '" + path + "'");
  }
  store_model(name,
              std::make_shared<const sd_fault_tree>(parse_sd_fault_tree(in)));
}

void analysis_service::load_text(const std::string& name,
                                 const std::string& text) {
  store_model(name, std::make_shared<const sd_fault_tree>(
                        parse_sd_fault_tree_string(text)));
}

void analysis_service::load_etree_file(const std::string& name,
                                       const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw error("serve: cannot open scenario file '" + path + "'");
  }
  scenario_model model = parse_scenario(in);
  scenario_options opts;
  opts.analysis = engine_.options();
  opts.analysis.inline_execution = true;
  auto compiled = std::make_shared<scenario_engine>(std::move(model), opts);
  std::unique_lock lock(models_mutex_);
  scenarios_[name] = std::move(compiled);
}

void analysis_service::load_etree_text(const std::string& name,
                                       const std::string& text) {
  scenario_model model = parse_scenario_string(text);
  scenario_options opts;
  opts.analysis = engine_.options();
  opts.analysis.inline_execution = true;
  auto compiled = std::make_shared<scenario_engine>(std::move(model), opts);
  std::unique_lock lock(models_mutex_);
  scenarios_[name] = std::move(compiled);
}

std::size_t analysis_service::num_models() const {
  std::shared_lock lock(models_mutex_);
  return models_.size();
}

std::size_t analysis_service::num_scenarios() const {
  std::shared_lock lock(models_mutex_);
  return scenarios_.size();
}

std::shared_ptr<scenario_engine> analysis_service::scenario(
    const std::string& name) const {
  std::shared_lock lock(models_mutex_);
  const auto it = scenarios_.find(name);
  require_model(it != scenarios_.end(),
                "serve: no scenario named '" + name +
                    "' (load_etree it first)");
  return it->second;
}

std::shared_ptr<const sd_fault_tree> analysis_service::model(
    const std::string& name) const {
  std::shared_lock lock(models_mutex_);
  const auto it = models_.find(name);
  require_model(it != models_.end(),
                "serve: no model named '" + name + "' (load it first)");
  return it->second;
}

void analysis_service::store_model(
    const std::string& name, std::shared_ptr<const sd_fault_tree> tree) {
  std::unique_lock lock(models_mutex_);
  models_[name] = std::move(tree);
}

std::string analysis_service::handle(const std::string& line) {
  auto& registry = obs::metrics_registry::global();
  requests_.fetch_add(1, std::memory_order_relaxed);
  registry.get_counter("serve.requests").add(1);
  const std::size_t active = active_.fetch_add(1, std::memory_order_relaxed);
  registry.set_gauge("serve.active", static_cast<double>(active + 1));
  std::string id;
  std::string response;
  try {
    obs::span_scope span("serve.request", "serve");
    const json::value root = json::parse(line);
    if (!root.is_object()) throw error("serve: request must be a JSON object");
    id = id_literal(root);
    const std::string& op = root.at("op").as_string();

    json::writer w;
    w.begin_object().key("ok").boolean(true);
    if (!id.empty()) w.key("id").raw(id);
    w.key("op").string(op);

    if (op == "load") {
      const std::string& name = root.at("name").as_string();
      if (root.contains("path")) {
        load_file(name, root.at("path").as_string());
      } else if (root.contains("text")) {
        load_text(name, root.at("text").as_string());
      } else {
        throw error("serve: load needs a 'path' or a 'text' field");
      }
      w.key("model").string(name);
      w.key("nodes").integer(model(name)->structure().size());
    } else if (op == "unload") {
      const std::string& name = root.at("name").as_string();
      std::unique_lock lock(models_mutex_);
      require_model(models_.erase(name) + scenarios_.erase(name) > 0,
                    "serve: no model named '" + name + "'");
      w.key("model").string(name);
    } else if (op == "list") {
      w.key("models").begin_array();
      std::shared_lock lock(models_mutex_);
      for (const auto& [name, tree] : models_) {
        w.begin_object()
            .key("name")
            .string(name)
            .key("nodes")
            .integer(tree->structure().size())
            .end_object();
      }
      w.end_array();
      w.key("scenarios").begin_array();
      for (const auto& [name, compiled] : scenarios_) {
        w.begin_object()
            .key("name")
            .string(name)
            .key("sequences")
            .integer(compiled->compiled_event_tree().num_sequences())
            .key("end_states")
            .integer(compiled->end_state_names().size())
            .end_object();
      }
      lock.unlock();
      w.end_array();
    } else if (op == "load_etree") {
      const std::string& name = root.at("name").as_string();
      if (root.contains("path")) {
        load_etree_file(name, root.at("path").as_string());
      } else if (root.contains("text")) {
        load_etree_text(name, root.at("text").as_string());
      } else {
        throw error("serve: load_etree needs a 'path' or a 'text' field");
      }
      const auto compiled = scenario(name);
      w.key("scenario").string(name);
      w.key("sequences").integer(
          compiled->compiled_event_tree().num_sequences());
      w.key("end_states").integer(compiled->end_state_names().size());
    } else if (op == "etree") {
      const auto compiled = scenario(root.at("model").as_string());
      if (root.contains("params") || root.contains("points")) {
        // Point re-evaluation off the compiled scenario: the request
        // carries the sweep grammar of engine/sweep.hpp.
        const auto points = compiled->evaluate_points(parse_sweep_value(root));
        w.key("end_state_names").begin_array();
        for (const auto& es : compiled->end_state_names()) w.string(es);
        w.end_array();
        w.key("points").begin_array();
        for (const auto& point : points) {
          w.begin_object().key("label").string(point.label);
          w.key("sequences").begin_array();
          for (const double p : point.sequence_probabilities) w.number(p);
          w.end_array();
          w.key("end_states").begin_array();
          for (const double p : point.end_state_probabilities) w.number(p);
          w.end_array();
          w.end_object();
        }
        w.end_array();
      } else {
        std::size_t uq_samples = 0;
        std::uint64_t uq_seed = 1;
        if (root.contains("uq_samples")) {
          uq_samples = checked_count("uq_samples", root.at("uq_samples"));
        }
        if (root.contains("uq_seed")) {
          uq_seed = checked_count("uq_seed", root.at("uq_seed"));
        }
        const scenario_result result = compiled->run(uq_samples, uq_seed);
        w.key("initiating_probability").number(result.initiating_probability);
        w.key("sequences").begin_array();
        for (const auto& s : result.sequences) {
          w.begin_object()
              .key("label")
              .string(s.label)
              .key("end_state")
              .string(s.end_state)
              .key("probability")
              .number(s.probability)
              .key("mcs_probability")
              .number(s.mcs_probability)
              .key("cutsets")
              .integer(s.num_cutsets);
          if (uq_samples > 0) write_uq_band(w, s.uq);
          w.end_object();
        }
        w.end_array();
        w.key("end_states").begin_array();
        for (const auto& e : result.end_states) {
          w.begin_object()
              .key("name")
              .string(e.name)
              .key("sequences")
              .integer(e.num_sequences)
              .key("probability")
              .number(e.probability)
              .key("mcs_probability")
              .number(e.mcs_probability)
              .key("cutsets")
              .integer(e.num_cutsets);
          if (uq_samples > 0) write_uq_band(w, e.uq);
          w.end_object();
        }
        w.end_array();
        w.key("seconds").number(result.stats.scenario_total_seconds);
      }
    } else if (op == "analyze") {
      const auto tree = model(root.at("model").as_string());
      analysis_options opts = engine_.options();
      // Request handlers run concurrently (one per connection / sweep
      // worker); each analysis runs inline and shares the engine caches.
      opts.inline_execution = true;
      if (root.contains("horizon")) opts.horizon = root.at("horizon").as_number();
      if (root.contains("cutoff")) opts.cutoff = root.at("cutoff").as_number();
      if (root.contains("exact_static")) {
        opts.exact_static = root.at("exact_static").as_bool();
      }
      apply_backend_request(root, opts);
      analysis_result result;
      if (root.contains("overrides")) {
        sd_fault_tree perturbed = *tree;
        for (const auto& [name, v] : root.at("overrides").as_object()) {
          const node_index e = perturbed.structure().find(name);
          require_model(e != fault_tree::npos,
                        "serve: unknown event '" + name + "'");
          require_model(perturbed.is_static(e),
                        "serve: event '" + name +
                            "' is not a static basic event");
          perturbed.structure().set_probability(
              e, checked_probability(name, v.as_number()));
        }
        result = engine_.run(perturbed, opts);
      } else {
        result = engine_.run(*tree, opts);
      }
      w.key("probability").number(result.failure_probability);
      if (opts.exact_static) {
        w.key("exact_static_probability")
            .number(result.exact_static_probability);
      }
      if (opts.backend == cutset_backend::mc) {
        write_mc_fields(w, result.mc);
      } else {
        w.key("cutsets").integer(result.num_cutsets);
        w.key("dynamic_cutsets").integer(result.num_dynamic_cutsets);
        w.key("struct_cache_hit").boolean(result.stats.struct_cache_hits > 0);
      }
      w.key("seconds").number(result.stats.total_seconds);
    } else if (op == "sweep") {
      const auto tree = model(root.at("model").as_string());
      analysis_options opts = engine_.options();
      if (root.contains("horizon")) opts.horizon = root.at("horizon").as_number();
      if (root.contains("cutoff")) opts.cutoff = root.at("cutoff").as_number();
      apply_backend_request(root, opts);
      // The request object itself carries the sweep grammar ("points" or
      // "params" arrays, see engine/sweep.hpp).
      const sweep_spec spec = resolve_sweep(parse_sweep_value(root), *tree);
      const sweep_result result = run_sweep(engine_, *tree, spec, opts);
      w.key("points").begin_array();
      for (std::size_t i = 0; i < result.points.size(); ++i) {
        w.begin_object()
            .key("label")
            .string(spec.points[i].label)
            .key("probability")
            .number(result.points[i].failure_probability);
        if (opts.backend == cutset_backend::mc) {
          write_mc_fields(w, result.points[i].mc);
        } else {
          w.key("cutsets").integer(result.points[i].num_cutsets);
        }
        w.end_object();
      }
      w.end_array();
      w.key("struct_cache_hits").integer(result.struct_cache_hits);
      w.key("prime_seconds").number(result.prime_seconds);
      w.key("seconds").number(result.total_seconds);
    } else if (op == "health") {
      w.key("status").string("ok");
      w.key("models").integer(num_models());
      w.key("scenarios").integer(num_scenarios());
      w.key("requests").integer(requests());
      w.key("errors").integer(errors());
      w.key("uptime_seconds").number(uptime_.seconds());
    } else if (op == "stats") {
      w.key("models").integer(num_models());
      w.key("uptime_seconds").number(uptime_.seconds());
      w.key("struct_cache").begin_object();
      const structure_cache& sc = engine_.structures();
      w.key("entries").integer(sc.size());
      w.key("capacity").integer(sc.capacity());
      w.key("hits").integer(sc.hits());
      w.key("misses").integer(sc.misses());
      w.key("evictions").integer(sc.evictions());
      w.end_object();
      w.key("quant_cache").begin_object();
      const quantification_cache& qc = engine_.cache();
      w.key("entries").integer(qc.size());
      w.key("solves").integer(qc.solves());
      w.key("capacity").integer(qc.capacity());
      w.key("hits").integer(qc.hits());
      w.key("misses").integer(qc.misses());
      w.key("evictions").integer(qc.evictions());
      w.end_object();
      w.key("metrics").raw(registry.to_json());
    } else if (op == "shutdown") {
      shutdown_.store(true, std::memory_order_release);
      w.key("status").string("shutting down");
    } else {
      throw error("serve: unknown op '" + op + "'");
    }
    w.end_object();
    response = w.str();
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    registry.get_counter("serve.errors").add(1);
    json::writer w;
    w.begin_object().key("ok").boolean(false);
    if (!id.empty()) w.key("id").raw(id);
    w.key("error").string(e.what());
    w.end_object();
    response = w.str();
  }
  const std::size_t now = active_.fetch_sub(1, std::memory_order_relaxed);
  registry.set_gauge("serve.active", static_cast<double>(now - 1));
  return response;
}

}  // namespace sdft::serve
