#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <list>
#include <ostream>
#include <string>
#include <thread>

#include "util/error.hpp"

namespace sdft::serve {

void serve_stdio(analysis_service& service, std::istream& in,
                 std::ostream& out) {
  std::string line;
  while (!service.shutdown_requested() && std::getline(in, line)) {
    if (line.empty()) continue;
    out << service.handle(line) << '\n' << std::flush;
  }
}

namespace {

/// Closes the fd on every exit path.
struct fd_guard {
  int fd = -1;
  ~fd_guard() {
    if (fd >= 0) ::close(fd);
  }
};

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Outcome of reading one request line off a connection.
enum class read_status { line, closed, oversized };

/// Pulls the next '\n'-terminated line out of `buffer`, receiving more as
/// needed. The socket has a short receive timeout, so the loop notices a
/// shutdown initiated by another connection. Returns `closed` on EOF,
/// error or shutdown, and `oversized` once more than max_request_bytes
/// arrive without a newline.
read_status read_line(int fd, const analysis_service& service,
                      std::string& buffer, std::string& line) {
  std::size_t scanned = 0;  // buffer[0, scanned) holds no '\n'
  for (;;) {
    const std::size_t nl = buffer.find('\n', scanned);
    if (nl != std::string::npos) {
      line.assign(buffer, 0, nl);
      buffer.erase(0, nl + 1);
      return read_status::line;
    }
    scanned = buffer.size();
    if (buffer.size() > max_request_bytes) return read_status::oversized;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return read_status::closed;  // peer closed
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (service.shutdown_requested()) return read_status::closed;
      continue;
    }
    return read_status::closed;
  }
}

void handle_connection(analysis_service& service, int fd) {
  fd_guard guard{fd};
  timeval timeout{};
  timeout.tv_usec = 200'000;  // 200ms, the shutdown poll granularity
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  std::string buffer;
  std::string line;
  for (;;) {
    const read_status status = read_line(fd, service, buffer, line);
    if (status == read_status::oversized) {
      send_all(fd, "{\"ok\":false,\"error\":\"request exceeds " +
                       std::to_string(max_request_bytes) + " bytes\"}\n");
      break;
    }
    if (status == read_status::closed) break;
    if (line.empty() || line == "\r") continue;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!send_all(fd, service.handle(line) + '\n')) break;
    if (service.shutdown_requested()) break;
  }
}

}  // namespace

void serve_tcp(analysis_service& service, unsigned short port,
               std::ostream& log, std::atomic<int>* bound_port) {
  fd_guard listener{::socket(AF_INET, SOCK_STREAM, 0)};
  if (listener.fd < 0) {
    throw error(std::string("serve: socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listener.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    throw error("serve: cannot bind 127.0.0.1:" + std::to_string(port) + ": " +
                std::strerror(errno));
  }
  if (::listen(listener.fd, 64) != 0) {
    throw error(std::string("serve: listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const unsigned short actual = ntohs(addr.sin_port);
  if (bound_port != nullptr) bound_port->store(actual);
  log << "listening on 127.0.0.1:" << actual << std::endl;

  // One handler thread per connection. A handler raises `done` as it
  // returns; the accept loop joins those before each poll, so a finished
  // connection's thread (and its stack) is released while the server runs
  // instead of at shutdown.
  struct connection {
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<connection> connections;
  while (!service.shutdown_requested()) {
    connections.remove_if([](connection& c) {
      if (!c.done.load(std::memory_order_acquire)) return false;
      c.thread.join();
      return true;
    });
    pollfd p{listener.fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listener.fd, nullptr, nullptr);
    if (fd < 0) continue;
    connection& c = connections.emplace_back();
    c.thread = std::thread([&service, &c, fd] {
      handle_connection(service, fd);
      c.done.store(true, std::memory_order_release);
    });
  }
  for (connection& c : connections) c.thread.join();
}

}  // namespace sdft::serve
