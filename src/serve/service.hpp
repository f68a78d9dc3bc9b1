#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>

#include "engine/engine.hpp"
#include "engine/scenario.hpp"
#include "util/stopwatch.hpp"

namespace sdft::serve {

/// The resident analysis service behind `sdft serve`: a model registry
/// plus one shared analysis_engine whose structure and quantification
/// caches persist across requests — the PSA what-if workload (same
/// structure, perturbed parameters, thousands of queries) then pays for
/// cutset generation once and re-quantifies ever after.
///
/// Requests and responses are single-line JSON objects (the transports
/// add the newline framing):
///
///   {"op":"load","name":"m","path":"data/bwr.sdft"}      load from file
///   {"op":"load","name":"m","text":"<sdft source>"}      load inline
///   {"op":"unload","name":"m"}
///   {"op":"list"}
///   {"op":"analyze","model":"m","horizon":24,"cutoff":1e-12,
///    "overrides":{"PUMP":0.01},"exact_static":true}
///   {"op":"sweep","model":"m","params":[{"name":"PUMP","lo":1e-4,
///    "hi":1e-2,"n":8,"scale":"log"}]}                    (or "points")
///   {"op":"load_etree","name":"s","path":"data/plant.etree"}  (or "text")
///   {"op":"etree","model":"s","uq_samples":1000,"uq_seed":7}
///   {"op":"etree","model":"s","params":[...]}            point re-eval
///                                                        (or "points")
///   {"op":"health"}
///   {"op":"stats"}                                        metrics dump
///   {"op":"shutdown"}
///
/// analyze and sweep also take "backend" ("mocus" or "mc") and an "mc"
/// block (service.cpp). Count and seed fields (mc trajectories, batch,
/// levels, replications, seed; uq_samples, uq_seed) must be non-negative
/// integers below 2^64; anything else is answered with "ok":false.
///
/// Every request may carry an "id" (string or number), echoed verbatim in
/// the response. Responses carry "ok":true, or "ok":false plus "error".
///
/// handle() is thread-safe and never throws; the serve.{requests,active,
/// errors} metrics are maintained on the global registry.
class analysis_service {
 public:
  explicit analysis_service(analysis_options engine_options = {});

  /// Registers a model from a file / from inline text (also available
  /// through the protocol). Throws sdft::error on parse failure.
  void load_file(const std::string& name, const std::string& path);
  void load_text(const std::string& name, const std::string& text);

  /// Registers a scenario (event-tree) model: parsed and compiled once,
  /// then every `etree` request re-quantifies off the compiled structure.
  void load_etree_file(const std::string& name, const std::string& path);
  void load_etree_text(const std::string& name, const std::string& text);

  /// Handles one request line, returns the response (no newline).
  std::string handle(const std::string& line);

  /// True once a shutdown request was accepted; transports drain and exit.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  std::size_t num_models() const;
  std::size_t num_scenarios() const;
  std::size_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  std::size_t errors() const {
    return errors_.load(std::memory_order_relaxed);
  }

  analysis_engine& engine() { return engine_; }

 private:
  std::shared_ptr<const sd_fault_tree> model(const std::string& name) const;
  void store_model(const std::string& name,
                   std::shared_ptr<const sd_fault_tree> tree);
  std::shared_ptr<scenario_engine> scenario(const std::string& name) const;

  analysis_engine engine_;
  mutable std::shared_mutex models_mutex_;
  std::map<std::string, std::shared_ptr<const sd_fault_tree>> models_;

  /// Compiled scenarios, under the same lock. run()/evaluate_points() only
  /// read the compiled structure, so concurrent requests share an entry.
  std::map<std::string, std::shared_ptr<scenario_engine>> scenarios_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> requests_{0};
  std::atomic<std::size_t> errors_{0};
  std::atomic<std::size_t> active_{0};
  stopwatch uptime_;
};

}  // namespace sdft::serve
