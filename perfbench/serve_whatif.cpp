// serve_whatif: a resident analysis_service behind serve_tcp on loopback,
// in this process, driven by two closed-loop client connections (each
// sends its next request when the previous response arrived). The engine
// serves with two threads. The model is the bench-size industrial model 1
// with every fail-in-operation event dynamic (one Erlang phase), so
// quantification is most of a request. Set-up primes the structure cache
// at the envelope point; every request then replays stage 2 from the
// structure cache, while its own seeded horizon makes the quantification
// cache miss on every solve it needs. Each request overrides 1-3 static
// probabilities below the envelope; every 8th is an 8-point sweep.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "engine/engine.hpp"
#include "engine/sweep.hpp"
#include "gen/industrial.hpp"
#include "obs/obs.hpp"
#include "sdft/parser.hpp"
#include "serve/service.hpp"
#include "serve/transport.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace sdft;

constexpr std::size_t connections = 2;
constexpr std::size_t engine_threads = 2;
constexpr double cutoff = 1e-15;
constexpr double min_horizon = 12.0;
constexpr double max_horizon = 48.0;
/// Overrides move a probability by at most this factor either way.
constexpr double override_span = 4.0;
constexpr std::size_t num_knobs = 16;
constexpr std::size_t sweep_every = 8;
constexpr std::size_t sweep_points = 8;
/// Requests compared bit for bit against one-shot analyze() results.
constexpr std::size_t sampled_analyses = 6;

analysis_options service_options() {
  analysis_options o;
  o.horizon = 24.0;
  o.cutoff = cutoff;
  o.threads = engine_threads;
  return o;
}

struct knob {
  std::string name;
  double base = 0;
};

struct served_study {
  sd_fault_tree tree;  ///< parsed from the text the service loaded
  std::vector<knob> knobs;
  std::unique_ptr<serve::analysis_service> service;
};

served_study make_served_study() {
  const industrial_model model = generate_industrial(model1_options(false));
  const std::vector<node_index> ranked = fv_ranking(model, engine_threads);
  annotation_options an;
  an.dynamic_fraction = 1.0;
  an.trigger_fraction = 0.1;
  an.repair_rate = 0.01;
  an.phases = 1;
  const std::string text =
      write_sd_fault_tree(annotate_dynamic(model, ranked, an));

  served_study s;
  s.tree = parse_sd_fault_tree_string(text);
  // The parsed tree numbers its nodes in document order: go by name.
  for (node_index e : ranked) {
    if (s.knobs.size() == num_knobs) break;
    const node_index parsed = s.tree.structure().find(model.ft.node(e).name);
    if (!s.tree.is_static(parsed)) continue;
    const ft_node& node = s.tree.structure().node(parsed);
    s.knobs.push_back({node.name, node.probability});
  }
  s.service = std::make_unique<serve::analysis_service>(service_options());
  s.service->load_text("study", text);

  // The envelope: every knob at its largest override, the longest horizon.
  sd_fault_tree envelope = s.tree;
  for (const knob& k : s.knobs) {
    const node_index e = envelope.structure().find(k.name);
    envelope.structure().set_probability(e,
                                         std::min(1.0, k.base * override_span));
  }
  analysis_options prime_opts = service_options();
  prime_opts.horizon = max_horizon;
  s.service->engine().prime(envelope, prime_opts);
  return s;
}

/// One request as sent and answered.
struct exchange {
  long id = 0;
  bool sweep = false;
  std::string line;
  std::string response;
  double sent = 0;      ///< now_s() before sending
  double received = 0;  ///< now_s() after the response line arrived
  bool traced = false;
};

/// The request sequence of one connection. Request cost depends steeply
/// on the horizon and on which knobs move, so horizons, knobs and override
/// factors follow evenly spread sequences (golden-ratio steps, knobs in
/// rotation) from seeded offsets: the seed changes every request while
/// the latency distribution stays the same from seed to seed.
class request_stream {
 public:
  explicit request_stream(std::uint64_t seed) {
    rng r(seed);
    horizon_offset_ = r.uniform();
    factor_offset_ = r.uniform();
    knob_offset_ = r.below(num_knobs);
  }

  std::string request(const std::vector<knob>& knobs, long k, long id,
                      bool sweep) const {
    const auto spread = [](double offset, double step, long i) {
      const double x = offset + step * static_cast<double>(i);
      return x - std::floor(x);
    };
    const auto knob_at = [&](long j) -> const knob& {
      return knobs[(knob_offset_ + static_cast<std::size_t>(k + 5 * j)) %
                   knobs.size()];
    };
    json::writer w;
    w.begin_object();
    w.key("op").string(sweep ? "sweep" : "analyze");
    w.key("id").integer(static_cast<std::size_t>(id));
    w.key("model").string("study");
    w.key("horizon").number(min_horizon + spread(horizon_offset_, golden, k) *
                                              (max_horizon - min_horizon));
    if (sweep) {
      const knob& s = knob_at(0);
      w.key("params").begin_array().begin_object();
      w.key("name").string(s.name);
      w.key("lo").number(s.base / override_span);
      w.key("hi").number(std::min(1.0, s.base * override_span));
      w.key("n").integer(sweep_points);
      w.key("scale").string("log");
      w.end_object().end_array();
    } else {
      w.key("overrides").begin_object();
      for (long j = 0; j <= k % 3; ++j) {
        const double u = spread(factor_offset_, silver, 3 * k + j);
        w.key(knob_at(j).name)
            .number(std::min(1.0, knob_at(j).base *
                                      std::pow(override_span, 2 * u - 1)));
      }
      w.end_object();
    }
    w.end_object();
    return w.str();
  }

 private:
  static constexpr double golden = 0.6180339887498949;
  static constexpr double silver = 0.4142135623730951;
  double horizon_offset_ = 0;
  double factor_offset_ = 0;
  std::size_t knob_offset_ = 0;
};

/// A blocking NDJSON client connection to 127.0.0.1:port.
class connection {
 public:
  explicit connection(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw error("serve_whatif: socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<unsigned short>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw error("serve_whatif: cannot connect to the service");
    }
  }
  ~connection() { ::close(fd_); }
  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;

  std::string request(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw error("serve_whatif: send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return response;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw error("serve_whatif: connection closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Runs serve_tcp on a thread for the lifetime of the object; the
/// destructor requests shutdown and joins.
class served_port {
 public:
  explicit served_port(serve::analysis_service& service) : service_(service) {
    thread_ = std::thread([this] {
      try {
        serve::serve_tcp(service_, 0, log_, &port_);
      } catch (const std::exception& e) {
        failure_ = e.what();
        port_.store(-1);
      }
    });
    while (port_.load() == 0) std::this_thread::yield();
    if (port_.load() < 0) {
      thread_.join();
      throw error("serve_whatif: serve_tcp failed: " + failure_);
    }
  }
  ~served_port() {
    try {
      connection control(port_.load());
      control.request(R"({"op":"shutdown"})");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve_whatif: shutdown: %s\n", e.what());
    }
    thread_.join();
  }
  served_port(const served_port&) = delete;
  served_port& operator=(const served_port&) = delete;

  int port() const { return port_.load(); }

 private:
  serve::analysis_service& service_;
  std::ostringstream log_;
  std::atomic<int> port_{0};
  std::string failure_;
  std::thread thread_;
};

/// Bit-for-bit comparison of one answered analyze request (or one point
/// of a sweep) with a one-shot analyze() of the same perturbed tree.
bool matches_one_shot(const sd_fault_tree& tree,
                      const std::vector<std::pair<node_index, double>>& overrides,
                      double horizon, double probability, double cutsets) {
  sd_fault_tree perturbed = tree;
  for (const auto& [e, p] : overrides) perturbed.structure().set_probability(e, p);
  analysis_options opts = service_options();
  opts.horizon = horizon;
  opts.publish_metrics = false;
  const analysis_result r = analyze(perturbed, opts);
  return r.failure_probability == probability &&
         static_cast<double>(r.num_cutsets) == cutsets;
}

/// The answered request's reference comparison (sampled requests only).
bool check_against_one_shot(const sd_fault_tree& tree, const exchange& x) {
  const json::value req = json::parse(x.line);
  const json::value res = json::parse(x.response);
  const double horizon = req.at("horizon").as_number();
  if (!x.sweep) {
    std::vector<std::pair<node_index, double>> overrides;
    for (const auto& [name, v] : req.at("overrides").as_object()) {
      overrides.push_back({tree.structure().find(name), v.as_number()});
    }
    return matches_one_shot(tree, overrides, horizon,
                            res.at("probability").as_number(),
                            res.at("cutsets").as_number());
  }
  const sweep_spec spec = resolve_sweep(parse_sweep_value(req), tree);
  const json::array& points = res.at("points").as_array();
  if (points.size() != spec.points.size()) return false;
  // The two ends of the grid.
  for (std::size_t i : {std::size_t{0}, spec.points.size() - 1}) {
    if (!matches_one_shot(tree, spec.points[i].overrides, horizon,
                          points[i].at("probability").as_number(),
                          points[i].at("cutsets").as_number())) {
      return false;
    }
  }
  return true;
}

struct obs_alignment {
  double epoch = 0;  ///< now_s() of the obs recorder epoch
};

obs_alignment restart_obs_recording() {
  const double before = now_s();
  obs::trace_recorder::instance().clear();
  const double after = now_s();
  obs::set_enabled(true);
  return {0.5 * (before + after)};
}

}  // namespace

void run_serve_whatif(const run_config& cfg, run_result& out,
                      layer_map& layers) {
  double setup_s = 0;
  served_study study = timed_setup(make_served_study, setup_s);
  serve::analysis_service& service = *study.service;
  std::fprintf(stderr, "serve_whatif: %zu knobs, set-up %.3fs\n",
               study.knobs.size(), setup_s);

  const std::size_t sc_hits0 = service.engine().structures().hits();
  const std::size_t sc_misses0 = service.engine().structures().misses();
  const std::size_t qc_hits0 = service.engine().cache().hits();
  const std::size_t qc_misses0 = service.engine().cache().misses();

  std::vector<std::vector<exchange>> per_client(connections);
  std::vector<std::string> client_errors(connections);
  obs_alignment obs_epoch;
  double window_start = 0;
  {
    served_port server(service);
    // On the traced run the first half of the window is untraced (the
    // overhead baseline) and the second half records the program's spans.
    window_start = now_s();
    const double window_end = window_start + cfg.seconds;
    const double trace_from =
        cfg.trace ? window_start + 0.5 * cfg.seconds : window_end + 1e9;
    std::atomic<bool> tracing{false};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        try {
          connection conn(server.port());
          const request_stream stream(mix_seed(cfg.seed, 1000 + c));
          for (long k = 0; now_s() < window_end; ++k) {
            if (c == 0 && !tracing.load() && now_s() >= trace_from) {
              obs_epoch = restart_obs_recording();
              tracing.store(true);
            }
            exchange x;
            x.id = static_cast<long>(c) * 1'000'000 + k;
            x.sweep = k % sweep_every == sweep_every - 1;
            x.line = stream.request(study.knobs, k, x.id, x.sweep);
            x.traced = tracing.load();
            x.sent = now_s();
            x.response = conn.request(x.line);
            x.received = now_s();
            per_client[c].push_back(std::move(x));
          }
        } catch (const std::exception& e) {
          client_errors[c] = e.what();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    obs::set_enabled(false);
  }
  for (const std::string& e : client_errors) {
    if (!e.empty()) throw error("serve_whatif: client failed: " + e);
  }

  // Per-request checks: "ok":true with the id echoed, plus a seeded sample
  // compared bit for bit with one-shot analyses.
  std::vector<exchange*> all;
  for (auto& list : per_client) {
    for (exchange& x : list) all.push_back(&x);
  }
  std::vector<bool> ok(all.size(), true);
  for (std::size_t i = 0; i < all.size(); ++i) {
    try {
      const json::value res = json::parse(all[i]->response);
      ok[i] = res.contains("ok") && res.at("ok").as_bool() &&
              res.contains("id") &&
              res.at("id").as_number() == static_cast<double>(all[i]->id);
    } catch (const std::exception&) {
      ok[i] = false;
    }
  }
  rng pick(mix_seed(cfg.seed, 2));
  std::vector<std::size_t> sample;
  std::size_t sweeps_sampled = 0;
  for (std::size_t tries = 0; tries < 64 && !all.empty() &&
                              sample.size() < sampled_analyses + 1;
       ++tries) {
    const std::size_t i = pick.below(all.size());
    if (!ok[i] || std::find(sample.begin(), sample.end(), i) != sample.end()) {
      continue;
    }
    if (all[i]->sweep) {
      if (sweeps_sampled > 0) continue;
      ++sweeps_sampled;
    }
    sample.push_back(i);
  }
  for (std::size_t i : sample) {
    if (!check_against_one_shot(study.tree, *all[i])) {
      std::fprintf(stderr, "serve_whatif: request %ld differs from one-shot\n",
                   all[i]->id);
      ok[i] = false;
    }
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    out.op(ok[i], "serve_whatif: request " + std::to_string(all[i]->id) +
                      " -> " + all[i]->response.substr(0, 200));
  }

  std::vector<double> latency;
  std::vector<double> traced_latency;
  std::vector<double> untraced_latency;
  double first_sent = 1e300;
  double last_received = 0;
  for (const exchange* x : all) {
    const double l = x->received - x->sent;
    latency.push_back(l);
    (x->traced ? traced_latency : untraced_latency).push_back(l);
    first_sent = std::min(first_sent, x->sent);
    last_received = std::max(last_received, x->received);
  }
  if (!cfg.trace) {
    emit_end_to_end(out, setup_s, latency, last_received - first_sent);
    return;
  }

  // Traced run: pair every traced request with the service's own
  // serve.request span (same connection thread, inside the client's
  // interval) and split its latency into handle and transport time.
  const std::size_t sc_hits = service.engine().structures().hits() - sc_hits0;
  const std::size_t sc_misses =
      service.engine().structures().misses() - sc_misses0;
  const std::size_t qc_hits = service.engine().cache().hits() - qc_hits0;
  const std::size_t qc_misses = service.engine().cache().misses() - qc_misses0;
  const std::vector<obs::span_record> recorded =
      obs::trace_recorder::instance().snapshot();
  obs::trace_recorder::instance().clear();
  struct interval {
    double start;
    double end;
    std::uint32_t tid;
  };
  const auto to_interval = [&](const obs::span_record& s) {
    const double start = obs_epoch.epoch + static_cast<double>(s.start_ns) * 1e-9;
    return interval{start, start + static_cast<double>(s.duration_ns) * 1e-9,
                    s.tid};
  };
  std::vector<interval> handles;
  std::vector<interval> quantify;
  for (const obs::span_record& s : recorded) {
    const std::string name = s.name;
    if (name == "serve.request") handles.push_back(to_interval(s));
    if (name == "engine.quantify") quantify.push_back(to_interval(s));
  }
  constexpr double slack = 1e-4;
  const auto inside = [&](const interval& h, const exchange& x) {
    return h.start >= x.sent - slack && h.end <= x.received + slack;
  };
  tracer tr;
  std::vector<double> handle_ms;
  std::vector<double> transport_ms;
  double sweep_handle_s = 0;
  std::size_t sweeps_traced = 0;
  std::size_t traced_requests = 0;
  double quant_busy = 0;
  for (const interval& q : quantify) quant_busy += q.end - q.start;
  std::size_t matched = 0;
  for (std::size_t c = 0; c < connections; ++c) {
    // The connection's handler thread: the tid whose spans fall inside
    // this client's requests most often.
    std::unordered_map<std::uint32_t, std::size_t> votes;
    for (const exchange& x : per_client[c]) {
      if (!x.traced) continue;
      for (const interval& h : handles) {
        if (inside(h, x)) ++votes[h.tid];
      }
    }
    std::uint32_t tid = 0;
    std::size_t best = 0;
    for (const auto& [t, n] : votes) {
      if (n > best) {
        best = n;
        tid = t;
      }
    }
    for (const exchange& x : per_client[c]) {
      if (!x.traced) continue;
      ++traced_requests;
      const std::uint64_t root = tr.add("serve_whatif.request", 0, x.sent,
                                        x.received, x.id, 1 + c);
      const auto h = std::find_if(handles.begin(), handles.end(),
                                  [&](const interval& i) {
                                    return i.tid == tid && inside(i, x);
                                  });
      if (h == handles.end()) continue;
      ++matched;
      const double hs = std::max(h->start, x.sent);
      const double he = std::min(h->end, x.received);
      const std::uint64_t handle =
          tr.add("serve.handle", root, hs, he, x.id, 100 + tid);
      tr.add("serve.transport", root, x.sent, hs, x.id, 1 + c);
      tr.add("serve.transport", root, he, x.received, x.id, 1 + c);
      for (const interval& q : quantify) {
        if (q.tid == tid && q.start >= hs - slack && q.end <= he + slack) {
          tr.add("quant", handle, std::max(q.start, hs), std::min(q.end, he),
                 x.id, 100 + tid);
        }
      }
      handle_ms.push_back((he - hs) * 1e3);
      transport_ms.push_back(((x.received - x.sent) - (he - hs)) * 1e3);
      if (x.sweep) {
        sweep_handle_s += he - hs;
        ++sweeps_traced;
      }
    }
  }
  out.op(traced_requests > 0 && matched == traced_requests,
         "serve_whatif: " + std::to_string(traced_requests - matched) +
             " traced requests without a service span");
  const auto ratio = [](std::size_t a, std::size_t b) {
    return a + b > 0 ? static_cast<double>(a) / static_cast<double>(a + b)
                     : 0.0;
  };
  layers["serve.handle_ms"] = median(handle_ms);
  layers["serve.transport_ms"] = median(transport_ms);
  layers["serve.request_tail_ms"] = tail_percentile(latency) * 1e3;
  layers["struct_cache.hit_ratio"] = ratio(sc_hits, sc_misses);
  layers["quant.cache_hit_ratio"] = ratio(qc_hits, qc_misses);
  layers["quant.busy_s"] =
      traced_requests > 0 ? quant_busy / static_cast<double>(traced_requests)
                          : 0.0;
  layers["sweep.points_per_s"] =
      sweep_handle_s > 0.0
          ? static_cast<double>(sweeps_traced * sweep_points) / sweep_handle_s
          : 0.0;
  layers["trace.overhead_ms"] =
      (median(traced_latency) - median(untraced_latency)) * 1e3;
  layers["trace.layer_share"] = tr.layer_share();
  if (!cfg.trace_path.empty() && !tr.write_chrome_json(cfg.trace_path)) {
    std::fprintf(stderr, "serve_whatif: cannot write %s\n",
                 cfg.trace_path.c_str());
  }
}

}  // namespace perfbench
