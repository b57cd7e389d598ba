// Minimal HTTP/1.1 serving loop for cnauditd's query surface.
//
// Deliberately tiny: one accept thread, one request per connection
// (Connection: close), GET-only targets, no TLS, no keep-alive. The
// daemon's reports are small JSON documents read by a scraper or a
// human with curl; a request router and a socket loop are all that is
// warranted. Robustness over features: one 1 s deadline for each
// request head (an idle or trickling client gets a 400 and cannot hold
// the one-at-a-time loop), EINTR-safe syscall wrappers, and a stop()
// that unblocks accept() so shutdown never hangs.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cn::daemon {

struct HttpRequest {
  std::string method;  ///< "GET"
  std::string target;  ///< "/report", query string included verbatim
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  /// Extra headers (name, value) — version and staleness stamps travel
  /// here so the body bytes stay the sealed report's, however stale.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:@p port (0 = ephemeral) and spawns the accept
  /// loop. Returns false with *error set on bind failure.
  bool start(std::uint16_t port, Handler handler, std::string* error);

  /// Port actually bound (after start with port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Closes the listener and joins the accept thread. Idempotent.
  void stop();

  std::uint64_t requests_served() const noexcept { return served_.load(); }

 private:
  void serve_loop();
  void handle_connection(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
};

/// Standard reason phrase for the handful of statuses the daemon emits.
const char* http_status_text(int status);

}  // namespace cn::daemon
