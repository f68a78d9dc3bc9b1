// bench_serve — load benchmark for the structure-keyed reuse path and the
// resident service.
//
//   bench_serve [--full] [--points N] [--out FILE]
//     A/B: an N-point batched sweep over the synthetic industrial model vs
//     N independent one-shot analyses (bit-identity checked per point),
//     plus cold-vs-warm analyze latency through analysis_service. Writes
//     the measurements as JSON (default BENCH_serve.json) for CI archival;
//     `obs_check bench-serve` asserts the acceptance thresholds on it.
//
//   bench_serve --connect PORT [--model NAME] [--event NAME]
//     Script client for a running `sdft serve --port PORT`: health, list,
//     one cold and several warm analyze requests (latencies printed), an
//     optional sweep when --event names a static basic event, shutdown is
//     left to the caller. Exits non-zero on any "ok":false response.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "engine/sweep.hpp"
#include "gen/industrial.hpp"
#include "sdft/parser.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace sdft;

const char* arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

/// The annotated industrial study: static PSA model plus dynamic events on
/// the FV-ranked components, the workload the service is built for.
sd_fault_tree make_study(bool full) {
  const bench::prepared_model prepared =
      bench::prepare(bench::model1_options(full));
  annotation_options an;
  an.dynamic_fraction = 0.3;
  an.trigger_fraction = 0.1;
  an.repair_rate = 0.01;
  return annotate_dynamic(prepared.model, prepared.ranked, an);
}

std::string first_static_event(const sd_fault_tree& tree) {
  const fault_tree& ft = tree.structure();
  for (node_index n = 0; n < ft.size(); ++n) {
    if (ft.is_basic(n) && tree.is_static(n)) return ft.node(n).name;
  }
  throw error("bench_serve: model has no static basic event");
}

bool same_cutsets(const analysis_result& a, const analysis_result& b) {
  if (a.cutsets.size() != b.cutsets.size()) return false;
  for (std::size_t i = 0; i < a.cutsets.size(); ++i) {
    if (a.cutsets[i].events != b.cutsets[i].events) return false;
    if (a.cutsets[i].probability != b.cutsets[i].probability) return false;
  }
  return true;
}

// ---------------------------------------------------------------- in-process

int run_inprocess(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  const char* points_arg = arg_value(argc, argv, "--points");
  const std::size_t num_points =
      points_arg != nullptr ? std::strtoul(points_arg, nullptr, 10) : 32;
  const char* out_arg = arg_value(argc, argv, "--out");
  const std::string out_path =
      out_arg != nullptr ? out_arg : "BENCH_serve.json";

  std::printf("=== bench_serve: structure reuse vs one-shot analyses ===\n\n");
  const sd_fault_tree tree = make_study(full);
  const fault_tree& ft = tree.structure();
  std::printf("model: %zu basic events, %zu gates, %zu dynamic\n",
              ft.num_basic_events(), ft.num_gates(),
              tree.dynamic_events().size());

  analysis_options opts;
  opts.horizon = 24.0;
  opts.cutoff = 1e-12;

  const std::string axis = first_static_event(tree);
  const sweep_spec spec = resolve_sweep(
      parse_sweep_ranges({axis + "=1e-4:1e-2:" + std::to_string(num_points) +
                          ":log"}),
      tree);

  // A: the batched sweep — one envelope prime, every point replayed from
  // the shared structure cache.
  analysis_engine engine(opts);
  stopwatch sweep_timer;
  const sweep_result swept = run_sweep(engine, tree, spec);
  const double sweep_seconds = sweep_timer.seconds();

  // B: the same points as independent one-shot analyses, each paying
  // stages 1–2 from scratch — what a script without the service would do.
  stopwatch oneshot_timer;
  std::vector<analysis_result> oneshots;
  oneshots.reserve(spec.points.size());
  for (const sweep_point& point : spec.points) {
    sd_fault_tree perturbed = tree;
    for (const auto& [e, p] : point.overrides) {
      perturbed.structure().set_probability(e, p);
    }
    oneshots.push_back(analyze(perturbed, opts));
  }
  const double oneshot_seconds = oneshot_timer.seconds();

  bool bit_identical = true;
  for (std::size_t i = 0; i < spec.points.size(); ++i) {
    if (swept.points[i].failure_probability !=
            oneshots[i].failure_probability ||
        !same_cutsets(swept.points[i], oneshots[i])) {
      bit_identical = false;
      std::printf("MISMATCH at point %zu (%s)\n", i, spec.points[i].label.c_str());
    }
  }
  const double speedup =
      sweep_seconds > 0.0 ? oneshot_seconds / sweep_seconds : 0.0;
  std::printf(
      "\nsweep: %zu points in %.3fs (prime %.3fs, %zu cache hits)\n"
      "one-shots: %.3fs   speedup: %.2fx   bit-identical: %s\n",
      spec.points.size(), sweep_seconds, swept.prime_seconds,
      swept.struct_cache_hits, oneshot_seconds, speedup,
      bit_identical ? "yes" : "NO");

  // C: service latency — cold first request (pays stages 1–2), then warm
  // requests riding the resident caches.
  serve::analysis_service service(opts);
  service.load_text("study", write_sd_fault_tree(tree));
  const std::string request_prefix =
      R"({"op":"analyze","model":"study","overrides":{")" + axis + R"(":)";
  stopwatch cold_timer;
  const std::string cold = service.handle(request_prefix + "0.003}}");
  const double cold_seconds = cold_timer.seconds();
  if (json::parse(cold).at("ok").as_bool() != true) {
    std::fprintf(stderr, "bench_serve: cold request failed: %s\n",
                 cold.c_str());
    return 1;
  }
  const std::size_t warm_requests = 10;
  double warm_total = 0.0;
  double warm_min = 0.0;
  for (std::size_t i = 0; i < warm_requests; ++i) {
    const double p = 1e-3 + static_cast<double>(i) * 1e-4;
    stopwatch warm_timer;
    const std::string warm =
        service.handle(request_prefix + json::number(p) + "}}");
    const double s = warm_timer.seconds();
    if (json::parse(warm).at("ok").as_bool() != true) {
      std::fprintf(stderr, "bench_serve: warm request failed: %s\n",
                   warm.c_str());
      return 1;
    }
    warm_total += s;
    warm_min = i == 0 ? s : std::min(warm_min, s);
  }
  const double warm_mean = warm_total / static_cast<double>(warm_requests);
  std::printf(
      "serve: cold %.3fs, warm mean %.4fs (min %.4fs over %zu requests), "
      "cold/warm %.1fx\n",
      cold_seconds, warm_mean, warm_min, warm_requests,
      warm_mean > 0.0 ? cold_seconds / warm_mean : 0.0);

  json::writer w;
  w.begin_object();
  w.key("model").begin_object();
  w.key("basic_events").integer(ft.num_basic_events());
  w.key("gates").integer(ft.num_gates());
  w.key("dynamic_events").integer(tree.dynamic_events().size());
  w.key("full").boolean(full);
  w.end_object();
  w.key("sweep").begin_object();
  w.key("points").integer(spec.points.size());
  w.key("sweep_seconds").number(sweep_seconds);
  w.key("prime_seconds").number(swept.prime_seconds);
  w.key("oneshot_seconds").number(oneshot_seconds);
  w.key("speedup").number(speedup);
  w.key("bit_identical").boolean(bit_identical);
  w.key("struct_cache_hits").integer(swept.struct_cache_hits);
  w.end_object();
  w.key("serve").begin_object();
  w.key("cold_seconds").number(cold_seconds);
  w.key("warm_mean_seconds").number(warm_mean);
  w.key("warm_min_seconds").number(warm_min);
  w.key("warm_requests").integer(warm_requests);
  w.key("cold_over_warm")
      .number(warm_mean > 0.0 ? cold_seconds / warm_mean : 0.0);
  w.end_object();
  w.end_object();
  std::ofstream out(out_path);
  out << w.str() << "\n";
  std::printf("wrote %s\n", out_path.c_str());
  return bit_identical ? 0 : 1;
}

// -------------------------------------------------------------- TCP client

class client {
 public:
  explicit client(unsigned short port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw error("bench_serve: socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw error("bench_serve: cannot connect to 127.0.0.1:" +
                  std::to_string(port));
    }
  }
  ~client() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Sends one request line, returns the parsed response; throws on a
  /// transport error or an "ok":false response.
  json::value request(const std::string& line, double* seconds = nullptr) {
    stopwatch timer;
    std::string framed = line;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent, 0);
      if (n <= 0) throw error("bench_serve: send failed");
      sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char c = 0;
    while (true) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) throw error("bench_serve: connection closed mid-response");
      if (c == '\n') break;
      response.push_back(c);
    }
    if (seconds != nullptr) *seconds = timer.seconds();
    json::value parsed = json::parse(response);
    if (parsed.at("ok").as_bool() != true) {
      throw error("bench_serve: request failed: " + response);
    }
    return parsed;
  }

 private:
  int fd_ = -1;
};

int run_client(int argc, char** argv) {
  const char* port_arg = arg_value(argc, argv, "--connect");
  const char* model_arg = arg_value(argc, argv, "--model");
  const char* event_arg = arg_value(argc, argv, "--event");
  const std::string model = model_arg != nullptr ? model_arg : "default";
  const unsigned short port =
      static_cast<unsigned short>(std::strtoul(port_arg, nullptr, 10));

  client c(port);
  c.request(R"({"op":"health","id":"bench"})");
  c.request(R"({"op":"list"})");

  const std::string analyze =
      R"({"op":"analyze","model":")" + model + R"(","horizon":24})";
  double cold = 0.0;
  c.request(analyze, &cold);
  double warm_total = 0.0;
  const std::size_t warm_requests = 5;
  for (std::size_t i = 0; i < warm_requests; ++i) {
    double s = 0.0;
    c.request(analyze, &s);
    warm_total += s;
  }
  std::printf("client: cold %.4fs, warm mean %.4fs over %zu requests\n",
              cold, warm_total / static_cast<double>(warm_requests),
              warm_requests);

  if (event_arg != nullptr) {
    double s = 0.0;
    const json::value swept = c.request(
        R"({"op":"sweep","model":")" + model + R"(","params":[{"name":")" +
            event_arg + R"(","lo":1e-4,"hi":1e-2,"n":8,"scale":"log"}]})",
        &s);
    std::printf("client: 8-point sweep on %s in %.4fs (%zu points)\n",
                event_arg, s, swept.at("points").as_array().size());
  }

  const json::value stats = c.request(R"({"op":"stats"})");
  std::printf("client: server held %.0f model(s), all requests ok\n",
              stats.at("models").as_number());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (arg_value(argc, argv, "--connect") != nullptr) {
      return run_client(argc, argv);
    }
    return run_inprocess(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 1;
  }
}
