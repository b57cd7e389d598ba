#include "daemon/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/registry.hpp"

namespace cn::daemon {

namespace {

/// The whole request head must arrive within this long of the accept.
/// Connections are served one at a time, so an idle or trickling client
/// holds the next request back by at most this much.
constexpr std::chrono::milliseconds kHeadDeadline{1000};

ssize_t read_retry(int fd, char* buf, std::size_t n) {
  ssize_t r;
  do {
    r = ::read(fd, buf, n);
  } while (r < 0 && errno == EINTR);
  return r;
}

/// MSG_NOSIGNAL: a client that reset the connection turns the write into
/// EPIPE for this connection alone, not a SIGPIPE that ends the daemon.
bool write_all(int fd, const char* buf, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, buf + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

const char* http_status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(std::uint16_t port, Handler handler, std::string* error) {
  handler_ = std::move(handler);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    if (error != nullptr) *error = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 16) < 0) {
    if (error != nullptr) *error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  running_.store(true);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // shutdown() unblocks a pending accept(); close() alone may not.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::serve_loop() {
  static const obs::Counter requests("daemon.http.requests");
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    handle_connection(fd);
    // Count before close(): the client sees EOF at close, and a client
    // that has read its whole response must find the request counted.
    requests.add();
    served_.fetch_add(1);
    ::close(fd);
  }
}

void HttpServer::handle_connection(int fd) {
  // Read until the end of the request head (no bodies: GET only), all of
  // it within one deadline: a client that sends nothing, or a byte at a
  // time, gets a 400 when the deadline passes.
  const auto deadline = std::chrono::steady_clock::now() + kHeadDeadline;
  std::string head;
  bool expired = false;
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos && head.size() < 16 * 1024) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd readable{fd, POLLIN, 0};
    const int ready = left.count() > 0
                          ? ::poll(&readable, 1, static_cast<int>(left.count()))
                          : 0;
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) expired = true;
    if (ready <= 0) break;
    const ssize_t r = read_retry(fd, buf, sizeof buf);
    if (r <= 0) break;
    head.append(buf, static_cast<std::size_t>(r));
  }

  HttpResponse resp;
  const std::size_t line_end = head.find("\r\n");
  std::size_t sp1 = std::string::npos, sp2 = std::string::npos;
  if (line_end != std::string::npos) {
    sp1 = head.find(' ');
    if (sp1 != std::string::npos && sp1 < line_end) sp2 = head.find(' ', sp1 + 1);
  }
  if (expired || sp2 == std::string::npos || sp2 > line_end) {
    resp.status = 400;
    resp.content_type = "text/plain";
    resp.body = expired ? "request head timed out\n" : "malformed request line\n";
  } else {
    HttpRequest req;
    req.method = head.substr(0, sp1);
    req.target = head.substr(sp1 + 1, sp2 - sp1 - 1);
    resp = handler_(req);
  }

  char header[512];
  int n = std::snprintf(header, sizeof header,
                        "HTTP/1.1 %d %s\r\n"
                        "Content-Type: %s\r\n"
                        "Content-Length: %zu\r\n"
                        "Connection: close\r\n",
                        resp.status, http_status_text(resp.status),
                        resp.content_type.c_str(), resp.body.size());
  std::string out(header, static_cast<std::size_t>(n));
  for (const auto& [name, value] : resp.headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  out += resp.body;
  write_all(fd, out.data(), out.size());
}

}  // namespace cn::daemon
