#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>

#include "common.hpp"

namespace prmbench {

std::string http_request(std::string_view method, std::string_view target,
                         std::string_view body) {
  std::string out;
  out.reserve(96 + body.size());
  out.append(method);
  out += ' ';
  out.append(target);
  out += " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST") {
    out += "Content-Type: application/json\r\nContent-Length: ";
    append_uint(out, body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out.append(body);
  return out;
}

namespace {

bool iequals_prefix(std::string_view line, std::string_view lower_name) {
  if (line.size() < lower_name.size()) return false;
  for (std::size_t i = 0; i < lower_name.size(); ++i) {
    char c = line[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != lower_name[i]) return false;
  }
  return true;
}

}  // namespace

bool ResponseReader::next(int& status, std::string& body) {
  if (failed_) return false;
  const std::string_view view(buffer_.data() + offset_, buffer_.size() - offset_);
  const std::size_t head_end = view.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (view.size() > 64 * 1024) failed_ = true;
    return false;
  }
  const std::string_view head = view.substr(0, head_end);
  // Status line: "HTTP/1.1 200 OK".
  const std::size_t sp = head.find(' ');
  if (sp == std::string_view::npos || head.size() < sp + 4) {
    failed_ = true;
    return false;
  }
  int code = 0;
  if (std::from_chars(head.data() + sp + 1, head.data() + sp + 4, code).ec !=
      std::errc()) {
    failed_ = true;
    return false;
  }
  std::size_t content_length = 0;
  std::size_t line_start = head.find("\r\n");
  while (line_start != std::string_view::npos) {
    line_start += 2;
    const std::size_t line_end = head.find("\r\n", line_start);
    const std::string_view line =
        head.substr(line_start, line_end == std::string_view::npos
                                    ? std::string_view::npos
                                    : line_end - line_start);
    if (iequals_prefix(line, "content-length:")) {
      std::size_t i = 15;
      while (i < line.size() && line[i] == ' ') ++i;
      if (std::from_chars(line.data() + i, line.data() + line.size(), content_length)
              .ec != std::errc()) {
        failed_ = true;
        return false;
      }
    }
    line_start = line_end;
  }
  const std::size_t total = head_end + 4 + content_length;
  if (view.size() < total) return false;
  status = code;
  body.assign(view.data() + head_end + 4, content_length);
  offset_ += total;
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  } else if (offset_ > 1 << 20) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  return true;
}

int connect_loopback(std::uint16_t port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

namespace {

/// Write all of `bytes` to a nonblocking socket before `deadline`.
bool send_all(int fd, const std::string& bytes, Clock::time_point deadline) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EAGAIN) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now())
              .count();
      pollfd p{fd, POLLOUT, 0};
      if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

/// Read one response into `body` before `deadline`; the status or -1.
int read_response(int fd, ResponseReader& reader, std::string& body,
                  Clock::time_point deadline) {
  char buf[16384];
  for (;;) {
    int status = 0;
    if (reader.next(status, body)) return status;
    if (reader.failed()) return -1;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      reader.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EAGAIN) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now())
              .count();
      pollfd p{fd, POLLIN, 0};
      if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0) return -1;
      continue;
    }
    return -1;
  }
}

}  // namespace

BlockingConn::~BlockingConn() { close(); }

void BlockingConn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  reader_.clear();
}

int BlockingConn::exchange_once(const std::string& request_bytes, std::string& body,
                                int timeout_ms) {
  if (fd_ < 0) fd_ = connect_loopback(port_, /*nonblocking=*/true);
  if (fd_ < 0) return -1;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const int status = send_all(fd_, request_bytes, deadline)
                         ? read_response(fd_, reader_, body, deadline)
                         : -1;
  if (status < 0) close();
  return status;
}

int BlockingConn::exchange(const std::string& request_bytes, std::string& body,
                           int timeout_ms) {
  const bool reused = fd_ >= 0;
  const int status = exchange_once(request_bytes, body, timeout_ms);
  if (status < 0 && reused) return exchange_once(request_bytes, body, timeout_ms);
  return status;
}

int blocking_exchange(std::uint16_t port, const std::string& request_bytes,
                      std::string& body, int timeout_ms) {
  BlockingConn conn(port);
  return conn.exchange(request_bytes, body, timeout_ms);
}

std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::uint16_t port = 0;
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

}  // namespace prmbench
