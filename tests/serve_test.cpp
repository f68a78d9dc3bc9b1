// Serve-layer tests: the NDJSON protocol (every op, id echo, error
// responses), bit-exactness of served probabilities against direct engine
// runs (%.17g round-trips doubles exactly), the stdio and TCP transports,
// and a concurrent request hammer (a TSan target) over the shared caches.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_common.hpp"
#include "engine/engine.hpp"
#include "engine/scenario.hpp"
#include "etree/scenario.hpp"
#include "gen/industrial.hpp"
#include "sdft/parser.hpp"
#include "serve/service.hpp"
#include "serve/transport.hpp"
#include "test_models.hpp"
#include "util/json.hpp"

namespace sdft {
namespace {

using namespace sdft::testing;

std::string example_text() { return write_sd_fault_tree(example3_sd()); }

serve::analysis_service make_service() {
  analysis_options opts;
  opts.horizon = 24.0;
  return serve::analysis_service(opts);
}

json::value handle(serve::analysis_service& service, const std::string& req) {
  return json::parse(service.handle(req));
}

TEST(Serve, LoadListAnalyzeUnload) {
  serve::analysis_service service = make_service();
  service.load_text("cooling", example_text());
  EXPECT_EQ(service.num_models(), 1u);

  const json::value list = handle(service, R"({"op":"list"})");
  EXPECT_TRUE(list.at("ok").as_bool());
  ASSERT_EQ(list.at("models").as_array().size(), 1u);
  EXPECT_EQ(list.at("models").as_array()[0].at("name").as_string(),
            "cooling");

  const json::value r =
      handle(service, R"({"op":"analyze","model":"cooling"})");
  ASSERT_TRUE(r.at("ok").as_bool());
  analysis_options opts;
  opts.horizon = 24.0;
  const analysis_result direct = analyze(example3_sd(), opts);
  // %.17g round-trips doubles exactly, so JSON equality is bit equality.
  EXPECT_EQ(r.at("probability").as_number(), direct.failure_probability);
  EXPECT_EQ(static_cast<std::size_t>(r.at("cutsets").as_number()),
            direct.num_cutsets);

  const json::value gone =
      handle(service, R"({"op":"unload","name":"cooling"})");
  EXPECT_TRUE(gone.at("ok").as_bool());
  EXPECT_EQ(service.num_models(), 0u);
  EXPECT_FALSE(handle(service, R"({"op":"analyze","model":"cooling"})")
                   .at("ok")
                   .as_bool());
}

TEST(Serve, AnalyzeOverridesAndWarmCache) {
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());

  const json::value cold = handle(
      service, R"({"op":"analyze","model":"m","overrides":{"a":0.01}})");
  ASSERT_TRUE(cold.at("ok").as_bool());
  EXPECT_FALSE(cold.at("struct_cache_hit").as_bool());

  const json::value warm = handle(
      service, R"({"op":"analyze","model":"m","overrides":{"a":0.005}})");
  ASSERT_TRUE(warm.at("ok").as_bool());
  EXPECT_TRUE(warm.at("struct_cache_hit").as_bool());
  // The warm request took every FT_C plan and trigger set from the
  // entry's memos.
  const json::value metrics =
      handle(service, R"({"op":"stats"})").at("metrics");
  EXPECT_EQ(metrics.at("quant.trigger_set_misses").as_number(), 0.0);
  EXPECT_GT(metrics.at("quant.trigger_set_hits").as_number(), 0.0);
  EXPECT_EQ(metrics.at("quant.ftc_plan_misses").as_number(), 0.0);
  EXPECT_GT(metrics.at("quant.ftc_plan_hits").as_number(), 0.0);

  sd_fault_tree perturbed = example3_sd();
  perturbed.structure().set_probability(perturbed.structure().find("a"),
                                        0.005);
  analysis_options opts;
  opts.horizon = 24.0;
  EXPECT_EQ(warm.at("probability").as_number(),
            analyze(perturbed, opts).failure_probability);
}

TEST(Serve, AnalyzePerRequestOptions) {
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());
  const json::value r = handle(
      service,
      R"({"op":"analyze","model":"m","horizon":96,"cutoff":1e-9,
          "exact_static":true})");
  ASSERT_TRUE(r.at("ok").as_bool());
  analysis_options opts;
  opts.horizon = 96.0;
  opts.cutoff = 1e-9;
  opts.exact_static = true;
  const analysis_result direct = analyze(example3_sd(), opts);
  EXPECT_EQ(r.at("probability").as_number(), direct.failure_probability);
  EXPECT_EQ(r.at("exact_static_probability").as_number(),
            direct.exact_static_probability);
}

TEST(Serve, AnalyzeMcBackendReturnsConfidenceInterval) {
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());
  const json::value r = handle(
      service,
      R"({"op":"analyze","model":"m","backend":"mc",
          "mc":{"method":"forcing","trajectories":20000,"seed":3}})");
  ASSERT_TRUE(r.at("ok").as_bool());

  analysis_options opts;
  opts.horizon = 24.0;
  opts.backend = cutset_backend::mc;
  opts.inline_execution = true;
  opts.mc.method = sim::mc_method::forcing;
  opts.mc.trajectories = 20'000;
  opts.mc.seed = 3;
  const analysis_result direct = analyze(example3_sd(), opts);
  EXPECT_EQ(r.at("probability").as_number(), direct.failure_probability);
  EXPECT_EQ(r.at("mc_method").as_string(), "forcing");
  EXPECT_EQ(r.at("ci_low").as_number(), direct.mc.ci_low);
  EXPECT_EQ(r.at("ci_high").as_number(), direct.mc.ci_high);
  EXPECT_EQ(r.at("trajectories").as_number(), 20'000.0);
  EXPECT_GT(r.at("failures").as_number(), 0.0);
  EXPECT_FALSE(r.contains("cutsets"));

  // Unknown backends and methods are taxonomy errors, not crashes.
  EXPECT_FALSE(handle(service,
                      R"({"op":"analyze","model":"m","backend":"qmc"})")
                   .at("ok")
                   .as_bool());
  EXPECT_FALSE(
      handle(service,
             R"({"op":"analyze","model":"m","backend":"mc",
                 "mc":{"method":"metropolis"}})")
          .at("ok")
          .as_bool());
}

TEST(Serve, SweepMcBackendReturnsPerPointIntervals) {
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());
  const json::value r = handle(
      service,
      R"({"op":"sweep","model":"m","backend":"mc",
          "mc":{"method":"forcing","trajectories":5000,"seed":2},
          "params":[{"name":"a","lo":0.001,"hi":0.01,"n":3,"scale":"log"}]})");
  ASSERT_TRUE(r.at("ok").as_bool());
  const json::array& points = r.at("points").as_array();
  ASSERT_EQ(points.size(), 3u);
  for (const json::value& p : points) {
    EXPECT_LE(p.at("ci_low").as_number(), p.at("probability").as_number());
    EXPECT_GE(p.at("ci_high").as_number(), p.at("probability").as_number());
    EXPECT_EQ(p.at("trajectories").as_number(), 5000.0);
    EXPECT_FALSE(p.contains("cutsets"));
  }
}

TEST(Serve, SweepRequestMatchesDirectRuns) {
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());
  const json::value r = handle(
      service,
      R"({"op":"sweep","model":"m",
          "params":[{"name":"a","lo":0.001,"hi":0.01,"n":4,"scale":"log"}]})");
  ASSERT_TRUE(r.at("ok").as_bool());
  const json::array& points = r.at("points").as_array();
  ASSERT_EQ(points.size(), 4u);
  // The last grid point is exactly a=0.01; check it against a direct run.
  sd_fault_tree perturbed = example3_sd();
  perturbed.structure().set_probability(perturbed.structure().find("a"),
                                        0.01);
  analysis_options opts;
  opts.horizon = 24.0;
  EXPECT_EQ(points.back().at("probability").as_number(),
            analyze(perturbed, opts).failure_probability);
  EXPECT_EQ(static_cast<std::size_t>(r.at("struct_cache_hits").as_number()),
            4u);
}

TEST(Serve, IdEchoAndErrorTaxonomy) {
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());

  const json::value with_string_id =
      handle(service, R"({"op":"health","id":"req-1"})");
  EXPECT_EQ(with_string_id.at("id").as_string(), "req-1");
  const json::value with_number_id =
      handle(service, R"({"op":"health","id":7})");
  EXPECT_EQ(with_number_id.at("id").as_number(), 7.0);

  // Errors carry ok:false + error, echo the id, and count in errors().
  const std::size_t errors_before = service.errors();
  const json::value unknown_op =
      handle(service, R"({"op":"frobnicate","id":3})");
  EXPECT_FALSE(unknown_op.at("ok").as_bool());
  EXPECT_EQ(unknown_op.at("id").as_number(), 3.0);
  EXPECT_NE(unknown_op.at("error").as_string().find("unknown op"),
            std::string::npos);

  EXPECT_FALSE(handle(service, "{malformed").at("ok").as_bool());
  EXPECT_FALSE(handle(service, R"("just a string")").at("ok").as_bool());
  EXPECT_FALSE(handle(service, R"({"op":"analyze"})").at("ok").as_bool());
  EXPECT_FALSE(
      handle(service, R"({"op":"analyze","model":"nope"})").at("ok").as_bool());
  EXPECT_FALSE(
      handle(service,
             R"({"op":"analyze","model":"m","overrides":{"zz":0.1}})")
          .at("ok")
          .as_bool());
  EXPECT_FALSE(handle(service, R"({"op":"health","id":[1]})").at("ok").as_bool());
  EXPECT_EQ(service.errors(), errors_before + 7);
}

TEST(Serve, HealthStatsAndShutdown) {
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());
  (void)handle(service, R"({"op":"analyze","model":"m"})");

  const json::value health = handle(service, R"({"op":"health"})");
  EXPECT_TRUE(health.at("ok").as_bool());
  EXPECT_EQ(health.at("status").as_string(), "ok");
  EXPECT_EQ(health.at("models").as_number(), 1.0);
  EXPECT_GE(health.at("requests").as_number(), 2.0);

  // A second horizon solves every cached chain once more and explores
  // none: each quantification-cache entry now lists two solves.
  (void)handle(service, R"({"op":"analyze","model":"m","horizon":48})");

  const json::value stats = handle(service, R"({"op":"stats"})");
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("struct_cache").at("entries").as_number(), 1.0);
  const json::value& quant = stats.at("quant_cache");
  EXPECT_GT(quant.at("entries").as_number(), 0.0);
  EXPECT_EQ(quant.at("solves").as_number(),
            2.0 * quant.at("entries").as_number());
  EXPECT_TRUE(stats.at("metrics").is_object());
  EXPECT_TRUE(stats.at("metrics").contains("struct_cache.hits"));
  EXPECT_GT(stats.at("metrics").at("quant.chain_reuse").as_number(), 0.0);
  EXPECT_EQ(stats.at("metrics").at("quant.chain_reuse").as_number(),
            stats.at("metrics").at("quant.cache_miss").as_number());

  EXPECT_FALSE(service.shutdown_requested());
  EXPECT_TRUE(handle(service, R"({"op":"shutdown"})").at("ok").as_bool());
  EXPECT_TRUE(service.shutdown_requested());
}

std::string etree_text() {
  return R"(be IE 1e-2
be A 1e-3
be B 2e-3
be C 5e-4
or G1 A C
and G2 A B
or TOP G1 G2
top TOP

etree T
initiating IE
functional F1 G1
functional F2 G2
sequence OK S -
sequence OK F S
sequence CD F F

dist A lognormal 3
)";
}

TEST(Serve, EtreeLoadQuantifySweepUnload) {
  serve::analysis_service service = make_service();
  service.load_etree_text("plant", etree_text());
  EXPECT_EQ(service.num_scenarios(), 1u);

  const json::value list = handle(service, R"({"op":"list"})");
  ASSERT_EQ(list.at("scenarios").as_array().size(), 1u);
  EXPECT_EQ(list.at("scenarios").as_array()[0].at("name").as_string(),
            "plant");
  EXPECT_EQ(list.at("scenarios").as_array()[0].at("sequences").as_number(),
            3.0);

  // Served probabilities are bit-identical to a direct engine run: the
  // compiled structure is shared and %.17g round-trips doubles exactly.
  scenario_result direct = run_scenario(parse_scenario_string(etree_text()));
  const json::value r = handle(service, R"({"op":"etree","model":"plant"})");
  ASSERT_TRUE(r.at("ok").as_bool());
  const auto& seqs = r.at("sequences").as_array();
  ASSERT_EQ(seqs.size(), direct.sequences.size());
  for (std::size_t s = 0; s < seqs.size(); ++s) {
    EXPECT_EQ(seqs[s].at("label").as_string(), direct.sequences[s].label);
    EXPECT_EQ(seqs[s].at("probability").as_number(),
              direct.sequences[s].probability);
    EXPECT_EQ(seqs[s].at("mcs_probability").as_number(),
              direct.sequences[s].mcs_probability);
    EXPECT_FALSE(seqs[s].contains("uq"));
  }
  ASSERT_EQ(r.at("end_states").as_array().size(), 2u);

  // Per-request UQ: bands appear, repeat with the same seed is identical.
  const std::string uq_req =
      R"({"op":"etree","model":"plant","uq_samples":64,"uq_seed":9})";
  const json::value u1 = handle(service, uq_req);
  ASSERT_TRUE(u1.at("ok").as_bool());
  const json::value& band = u1.at("sequences").as_array()[2].at("uq");
  EXPECT_GT(band.at("p95").as_number(), band.at("p05").as_number());
  const json::value u2 = handle(service, uq_req);
  const json::value& band2 = u2.at("sequences").as_array()[2].at("uq");
  EXPECT_EQ(band.at("mean").as_number(), band2.at("mean").as_number());
  EXPECT_EQ(band.at("p50").as_number(), band2.at("p50").as_number());

  // Point re-evaluation off the compiled scenario.
  const json::value pts = handle(
      service,
      R"({"op":"etree","model":"plant","params":[{"name":"A","lo":1e-4,"hi":1e-2,"n":3,"scale":"log"}]})");
  ASSERT_TRUE(pts.at("ok").as_bool());
  ASSERT_EQ(pts.at("points").as_array().size(), 3u);
  EXPECT_EQ(pts.at("end_state_names").as_array()[1].as_string(), "CD");
  const auto& cd0 = pts.at("points").as_array()[0].at("end_states");
  EXPECT_GT(cd0.as_array()[1].as_number(), 0.0);

  EXPECT_FALSE(
      handle(service, R"({"op":"etree","model":"nope"})").at("ok").as_bool());
  EXPECT_TRUE(
      handle(service, R"({"op":"unload","name":"plant"})").at("ok").as_bool());
  EXPECT_EQ(service.num_scenarios(), 0u);
}

TEST(Serve, RejectsMalformedCountsAndRetiredBackend) {
  // Count fields arrive as JSON numbers: anything but a non-negative
  // integer below 2^64 is a model error, never a cast (a negative or
  // out-of-range cast is undefined, a fraction truncates silently). The
  // mc block is validated even when the backend does not read it.
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());
  service.load_etree_text("plant", etree_text());
  const std::size_t errors_before = service.errors();
  const auto expect_rejected = [&](const std::string& request,
                                   const std::string& complaint) {
    const json::value r = handle(service, request);
    ASSERT_FALSE(r.at("ok").as_bool()) << request;
    EXPECT_NE(r.at("error").as_string().find(complaint), std::string::npos)
        << request << ": " << r.at("error").as_string();
  };
  for (const std::string bad : {"2.5", "-1", "1e300"}) {
    expect_rejected(
        R"({"op":"analyze","model":"m","mc":{"trajectories":)" + bad + "}}",
        "'trajectories' must be a non-negative integer");
    expect_rejected(
        R"({"op":"etree","model":"plant","uq_samples":)" + bad + "}",
        "'uq_samples' must be a non-negative integer");
  }
  // MOCUS is the only cutset generator; "bdd" is an unknown backend.
  expect_rejected(R"({"op":"analyze","model":"m","backend":"bdd"})",
                  "unknown backend 'bdd'");
  EXPECT_EQ(service.errors(), errors_before + 7);

  // Integral counts, also written with an exponent, still pass.
  EXPECT_TRUE(handle(service,
                     R"({"op":"analyze","model":"m","backend":"mc",)"
                     R"("mc":{"trajectories":1e3,"seed":0}})")
                  .at("ok")
                  .as_bool());
  EXPECT_TRUE(
      handle(service,
             R"({"op":"etree","model":"plant","uq_samples":4,"uq_seed":3})")
          .at("ok")
          .as_bool());
  EXPECT_EQ(service.errors(), errors_before + 7);
}

TEST(Serve, RejectsNegativeCutoff) {
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());
  const json::value r =
      handle(service, R"({"op":"analyze","model":"m","cutoff":-1})");
  EXPECT_FALSE(r.at("ok").as_bool());
  EXPECT_NE(r.at("error").as_string().find("cutoff"), std::string::npos)
      << r.at("error").as_string();
}

TEST(Serve, StdioTransportRoundTrip) {
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());
  std::istringstream in(
      "{\"op\":\"health\"}\n"
      "\n"  // blank lines are skipped
      "{\"op\":\"analyze\",\"model\":\"m\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"health\"}\n");  // after shutdown: not processed
  std::ostringstream out;
  serve::serve_stdio(service, in, out);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<json::value> responses;
  while (std::getline(lines, line)) responses.push_back(json::parse(line));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].at("op").as_string(), "health");
  EXPECT_EQ(responses[1].at("op").as_string(), "analyze");
  EXPECT_EQ(responses[2].at("op").as_string(), "shutdown");
}

TEST(ServeConcurrent, HammerSharedService) {
  // TSan target: concurrent handle() calls mixing analyses, sweeps,
  // loads and stats against one service. Every analyze response must be
  // bit-identical to the single-threaded reference of its point.
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());

  analysis_options opts;
  opts.horizon = 24.0;
  std::vector<double> reference;
  for (int k = 0; k < 4; ++k) {
    sd_fault_tree perturbed = example3_sd();
    perturbed.structure().set_probability(perturbed.structure().find("a"),
                                          1e-3 * (k + 1));
    reference.push_back(analyze(perturbed, opts).failure_probability);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 8; ++round) {
        const int k = (t + round) % 4;
        char req[160];
        std::snprintf(req, sizeof req,
                      "{\"op\":\"analyze\",\"model\":\"m\","
                      "\"overrides\":{\"a\":%.17g}}",
                      1e-3 * (k + 1));
        const json::value r = json::parse(service.handle(req));
        if (!r.at("ok").as_bool() ||
            r.at("probability").as_number() !=
                reference[static_cast<std::size_t>(k)]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (round == 3) {
          (void)service.handle("{\"op\":\"stats\"}");
          (void)service.handle(
              "{\"op\":\"sweep\",\"model\":\"m\",\"params\":"
              "[{\"name\":\"c\",\"lo\":0.001,\"hi\":0.01,\"n\":2}]}");
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.errors(), 0u);
}

/// A client socket connected to 127.0.0.1:`port`. Sends and receives time
/// out after 10 s, so a server that never answers fails a test instead of
/// hanging it.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<unsigned short>(port));
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// Sends all of `data`; returns how many bytes went out before an error or
/// a send timeout.
std::size_t send_bytes(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  return sent;
}

/// One reply line without its newline; empty on timeout or EOF.
std::string read_reply(int fd) {
  std::string buf;
  char c;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') buf.push_back(c);
  return buf;
}

TEST(ServeTcp, EndToEndOverLoopback) {
  serve::analysis_service service = make_service();
  service.load_text("m", example_text());

  std::atomic<int> port{0};
  std::ostringstream log;
  std::thread server(
      [&] { serve::serve_tcp(service, 0, log, &port); });
  while (port.load() == 0) std::this_thread::yield();

  const int fd = connect_loopback(port.load());
  const auto request = [&](const std::string& req) {
    EXPECT_EQ(send_bytes(fd, req + "\n"), req.size() + 1);
    return json::parse(read_reply(fd));
  };

  const json::value health = request(R"({"op":"health","id":"tcp"})");
  EXPECT_TRUE(health.at("ok").as_bool());
  EXPECT_EQ(health.at("id").as_string(), "tcp");
  const json::value r = request(R"({"op":"analyze","model":"m"})");
  ASSERT_TRUE(r.at("ok").as_bool());
  analysis_options opts;
  opts.horizon = 24.0;
  EXPECT_EQ(r.at("probability").as_number(),
            analyze(example3_sd(), opts).failure_probability);
  EXPECT_TRUE(request(R"({"op":"shutdown"})").at("ok").as_bool());
  ::close(fd);
  server.join();
  EXPECT_NE(log.str().find("listening on 127.0.0.1:"), std::string::npos);
}

TEST(ServeTcp, OversizedRequestIsRejected) {
  // The cap leaves inline `load` of the largest shipped study ample room:
  // full-size industrial model 1 with every fail-in-operation event
  // dynamic takes under a hundredth of it (about 335 kB).
  {
    const industrial_model model =
        generate_industrial(bench::model1_options(true));
    annotation_options an;
    an.dynamic_fraction = 1.0;
    const std::string text =
        write_sd_fault_tree(annotate_dynamic(model, model.fio_events, an));
    EXPECT_LT(text.size() * 100, serve::max_request_bytes) << text.size();
  }

  serve::analysis_service service = make_service();
  std::atomic<int> port{0};
  std::ostringstream log;
  std::thread server([&] { serve::serve_tcp(service, 0, log, &port); });
  while (port.load() == 0) std::this_thread::yield();

  // One byte over the cap and no newline: the server must answer with an
  // error and hang up rather than buffer without bound.
  const int flood = connect_loopback(port.load());
  const std::string request(serve::max_request_bytes + 1, 'x');
  EXPECT_EQ(send_bytes(flood, request), request.size());
  const std::string reply = read_reply(flood);
  EXPECT_EQ(reply, "{\"ok\":false,\"error\":\"request exceeds " +
                       std::to_string(serve::max_request_bytes) +
                       " bytes\"}");
  char c;
  EXPECT_EQ(::recv(flood, &c, 1, 0), 0) << "connection left open";
  ::close(flood);

  // Other clients are still served.
  const int client = connect_loopback(port.load());
  send_bytes(client, "{\"op\":\"health\"}\n");
  const std::string health = read_reply(client);
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos) << health;
  send_bytes(client, "{\"op\":\"shutdown\"}\n");
  read_reply(client);
  ::close(client);
  server.join();
}


/// The process's virtual size in KiB, from /proc/self/status.
std::size_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::size_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

TEST(ServeTcp, FinishedConnectionsAreReaped) {
  // Every connection runs on its own handler thread. A finished handler
  // must be joined while the server runs: otherwise its thread stack
  // (8 MiB by default) stays mapped until shutdown, and a long-running
  // server grows with every connection it ever served.
  serve::analysis_service service = make_service();
  std::atomic<int> port{0};
  std::ostringstream log;
  std::thread server([&] { serve::serve_tcp(service, 0, log, &port); });
  while (port.load() == 0) std::this_thread::yield();

  const auto health_once = [&] {
    const int fd = connect_loopback(port.load());
    send_bytes(fd, "{\"op\":\"health\"}\n");
    EXPECT_NE(read_reply(fd).find("\"ok\":true"), std::string::npos);
    ::close(fd);
  };
  for (int i = 0; i < 4; ++i) health_once();  // warm the thread stack cache
  const std::size_t before = vm_size_kib();
  ASSERT_GT(before, 0u);
  constexpr int connections = 64;
  for (int i = 0; i < connections; ++i) health_once();
  const std::size_t after = vm_size_kib();
  // 64 unjoined handlers would add ~512 MiB; reaped ones reuse a few
  // cached stacks. Allow half a MiB per connection.
  EXPECT_LT(after, before + connections * 512)
      << "VmSize " << before << " KiB -> " << after << " KiB";

  const int fd = connect_loopback(port.load());
  send_bytes(fd, "{\"op\":\"shutdown\"}\n");
  read_reply(fd);
  ::close(fd);
  server.join();
}

}  // namespace
}  // namespace sdft
