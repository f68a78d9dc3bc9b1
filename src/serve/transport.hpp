#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>

#include "serve/service.hpp"

namespace sdft::serve {

/// Serial newline-delimited-JSON loop over a stream pair: one request per
/// line on `in`, one response per line on `out` (flushed per response, so
/// a piped client can interleave). Returns when `in` ends or a shutdown
/// request is handled. Blank lines are skipped.
void serve_stdio(analysis_service& service, std::istream& in,
                 std::ostream& out);

/// Longest request line the TCP transport buffers: 64 MiB, far above any
/// inline model text. A client that sends more without a newline gets a
/// `{"ok":false,"error":"request exceeds ... bytes"}` reply and is
/// disconnected; other connections keep being served.
inline constexpr std::size_t max_request_bytes = std::size_t{64} << 20;

/// TCP NDJSON server on 127.0.0.1:`port` (0 = ephemeral). Each connection
/// gets its own handler thread running the same per-line loop, so
/// concurrent clients exercise the service's shared caches in parallel.
/// Blocks until a shutdown request is handled (from any connection), then
/// drains and joins. The bound port is stored into `*bound_port` (when
/// non-null) once listening, and a "listening on 127.0.0.1:<port>" line
/// goes to `log` — which is how scripted clients and the CI smoke job
/// find an ephemeral port. Throws sdft::error when the socket cannot be
/// bound.
void serve_tcp(analysis_service& service, unsigned short port,
               std::ostream& log, std::atomic<int>* bound_port = nullptr);

}  // namespace sdft::serve
