// HTTP/1.1 on the wire, as the load generator sees it: request bytes, an
// incremental response reader and a blocking one-shot client for set-up,
// health probes and /metrics scrapes. Only what prm_cli serve emits is
// understood: status line, headers, Content-Length bodies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace prmbench {

/// Full request bytes for `method target` with an optional JSON body.
std::string http_request(std::string_view method, std::string_view target,
                         std::string_view body = {});

/// Incremental response reader. feed() bytes, then take complete responses
/// with next(); pipelined responses stay buffered in order.
class ResponseReader {
 public:
  void feed(const char* data, std::size_t size) { buffer_.append(data, size); }

  /// Parse the next complete response from the buffer. Returns false when
  /// more bytes are needed; sets failed() on a malformed head.
  bool next(int& status, std::string& body);

  bool failed() const noexcept { return failed_; }
  void clear() {
    buffer_.clear();
    offset_ = 0;
    failed_ = false;
  }

 private:
  std::string buffer_;
  std::size_t offset_ = 0;
  bool failed_ = false;
};

/// Connected, nonblocking, TCP_NODELAY socket to 127.0.0.1:port; -1 on
/// failure.
int connect_loopback(std::uint16_t port, bool nonblocking);

/// A blocking keep-alive connection for sequential exchanges (scrapes,
/// checks, ping-pong). Reconnects once when the server closed it.
class BlockingConn {
 public:
  explicit BlockingConn(std::uint16_t port) : port_(port) {}
  ~BlockingConn();
  BlockingConn(const BlockingConn&) = delete;
  BlockingConn& operator=(const BlockingConn&) = delete;

  /// Send `request_bytes`, wait for the response. Returns the status or -1.
  int exchange(const std::string& request_bytes, std::string& body, int timeout_ms = 5000);

 private:
  int exchange_once(const std::string& request_bytes, std::string& body, int timeout_ms);
  void close();

  std::uint16_t port_;
  int fd_ = -1;
  ResponseReader reader_;
};

/// One blocking exchange on a fresh connection, bounded by `timeout_ms`.
/// Returns the status (body in `body`) or -1 on any transport failure.
int blocking_exchange(std::uint16_t port, const std::string& request_bytes,
                      std::string& body, int timeout_ms = 5000);

/// An unused loopback port (bound, read back, released).
std::uint16_t free_port();

}  // namespace prmbench
