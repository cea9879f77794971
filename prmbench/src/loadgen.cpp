#include "loadgen.hpp"

#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <string>

#include "stats.hpp"
#include "wire.hpp"

namespace prmbench {

namespace {

constexpr std::uint64_t kTimerKey = ~std::uint64_t{0};
constexpr int kGeneratorNice = -10;
/// A request still unanswered this long after its due time fails.
constexpr std::chrono::seconds kResponseTimeout{10};

struct InFlight {
  Outgoing request;  ///< wire is cleared once the bytes are copied out.
  Clock::time_point due;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_offset = 0;
  bool write_armed = false;
  std::deque<InFlight> inflight;
  ResponseReader reader;
};

void arm_timer(int tfd, Clock::time_point at) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      at.time_since_epoch())
                      .count();
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1000000000);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1000000000);
  if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) spec.it_value.tv_nsec = 1;
  ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &spec, nullptr);
}

}  // namespace

double median_window_rate(const PhaseStats& stats, double window_s, bool samples) {
  const auto windows = static_cast<std::size_t>(stats.seconds / window_s);
  if (windows == 0) return 0.0;
  std::vector<double> per_window(windows, 0.0);
  for (std::size_t i = 0; i < stats.done_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(stats.done_s[i] / window_s);
    if (w < windows) per_window[w] += samples ? stats.done_samples[i] : 1.0;
  }
  for (double& v : per_window) v /= window_s;
  return median(per_window);
}

double median_chunk_percentile(const std::vector<double>& latency_ms, double q) {
  const std::size_t chunks = latency_ms.size() / 1000;
  if (chunks == 0) return 0.0;
  const std::size_t size = latency_ms.size() / chunks;
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> chunk(latency_ms.begin() + static_cast<std::ptrdiff_t>(c * size),
                              latency_ms.begin() + static_cast<std::ptrdiff_t>((c + 1) * size));
    std::sort(chunk.begin(), chunk.end());
    per_chunk.push_back(percentile_sorted(chunk, q));
  }
  return median(per_chunk);
}

PhaseStats LoadGen::run_closed(RequestSource& source, double seconds) {
  return run(source, /*open=*/false, 0.0, seconds);
}

PhaseStats LoadGen::run_open(RequestSource& source, double rate, double seconds) {
  return run(source, /*open=*/true, rate, seconds);
}

PhaseStats LoadGen::run(RequestSource& source, bool open, double rate, double seconds) {
  PhaseStats stats;
  // Wake on the due time, not up to the default 50 us timer slack later.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  // The generator stands in for clients on other machines: it outranks the
  // server's threads for a CPU so its own scheduling delay stays small
  // (best effort; without the privilege it runs at the default priority).
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), kGeneratorNice);
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  const int tfd = open ? ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) : -1;
  if (tfd >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTimerKey;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &ev);
  }

  std::vector<Conn> conns(options_.connections);
  auto attach = [&](std::size_t i) {
    conns[i].fd = connect_loopback(options_.port, /*nonblocking=*/true);
    if (conns[i].fd < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conns[i].fd, &ev);
  };
  for (std::size_t i = 0; i < conns.size(); ++i) attach(i);

  auto set_write_interest = [&](std::size_t i, bool on) {
    Conn& c = conns[i];
    if (c.write_armed == on || c.fd < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
    c.write_armed = on;
  };

  // A dead connection fails everything in flight on it and is replaced.
  auto fail_conn = [&](std::size_t i, Clock::time_point now) {
    Conn& c = conns[i];
    std::deque<InFlight> lost;
    lost.swap(c.inflight);
    if (c.fd >= 0) {
      ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
    }
    c = Conn{};
    attach(i);
    for (const InFlight& f : lost) {
      ++stats.failed;
      source.complete(i, f.request, -1, {}, now);
    }
  };

  auto try_write = [&](std::size_t i, Clock::time_point now) {
    Conn& c = conns[i];
    while (c.fd >= 0 && c.out_offset < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_offset,
                               c.out.size() - c.out_offset, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out_offset += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_write_interest(i, true);
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      fail_conn(i, now);
      return;
    }
    c.out.clear();
    c.out_offset = 0;
    set_write_interest(i, false);
  };

  bool exhausted = false;  // closed loop: the source ran dry
  auto send_one = [&](std::size_t i, Clock::time_point due, Clock::time_point now) {
    Outgoing request;
    if (!source.next(i, request)) {
      exhausted = true;
      return false;
    }
    Conn& c = conns[i];
    ++stats.attempted;
    if (open) stats.late_ms.push_back(ms_between(due, now));
    if (c.fd < 0) {  // reconnect failed: the request fails at once
      ++stats.failed;
      request.wire = {};
      source.complete(i, request, -1, {}, now);
      return true;
    }
    c.out.append(request.wire);
    request.wire = {};
    c.inflight.push_back(InFlight{request, due});
    try_write(i, now);
    return true;
  };

  const Clock::time_point start = Clock::now();
  Clock::time_point last_completion = start;
  std::string body;
  auto on_readable = [&](std::size_t i, Clock::time_point now, bool closed_loop_active,
                         Clock::time_point end) {
    char buf[65536];
    for (;;) {
      Conn& c = conns[i];
      if (c.fd < 0) return;
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) {
        fail_conn(i, now);
        return;
      }
      c.reader.feed(buf, static_cast<std::size_t>(n));
      int status = 0;
      while (conns[i].reader.next(status, body)) {
        Conn& cc = conns[i];
        if (cc.inflight.empty()) {  // a response nobody asked for
          fail_conn(i, now);
          return;
        }
        const InFlight f = cc.inflight.front();
        cc.inflight.pop_front();
        last_completion = now;
        if (status >= 200 && status < 300) {
          const double latency = ms_between(f.due, now);
          ++stats.ok;
          stats.samples_ok += f.request.samples;
          stats.resp_bytes += body.size();
          stats.latency_ms.push_back(latency);
          stats.done_s.push_back(seconds_between(start, now));
          stats.done_samples.push_back(f.request.samples);
          if (latency <= options_.latency_limit_ms) ++stats.within_limit;
          ++stats.kind_count[f.request.kind % kKinds];
        } else {
          ++stats.failed;
        }
        source.complete(i, f.request, status, body, now);
        if (closed_loop_active && now < end) send_one(i, now, now);
      }
      if (conns[i].reader.failed()) {
        fail_conn(i, now);
        return;
      }
    }
  };

  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  const std::uint64_t total =
      open ? static_cast<std::uint64_t>(std::llround(rate * seconds)) : 0;
  const double period_s = open ? 1.0 / rate : 0.0;
  auto due_of = [&](std::uint64_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(period_s * static_cast<double>(k)));
  };
  std::uint64_t k = 0;
  if (!open) {
    for (std::size_t i = 0; i < conns.size(); ++i) send_one(i, start, start);
  }

  std::vector<epoll_event> events(conns.size() + 1);
  for (;;) {
    Clock::time_point now = Clock::now();
    if (open) {
      while (k < total && due_of(k) <= now) {
        send_one(static_cast<std::size_t>(k % conns.size()), due_of(k), now);
        ++k;
        now = Clock::now();
      }
      if (k < total) arm_timer(tfd, due_of(k));
    }
    bool idle = true;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      // Closed loop: a replaced connection starts its next request here.
      if (!open && conns[i].inflight.empty() && now < end && !exhausted) {
        send_one(i, now, now);
      }
      if (conns[i].inflight.empty()) continue;
      if (now - conns[i].inflight.front().due > kResponseTimeout) {
        fail_conn(i, now);
        continue;
      }
      idle = false;
    }
    if (idle && (open ? k >= total : now >= end || exhausted)) break;

    int wait_ms = 100;
    if (!open && now < end) {
      wait_ms = static_cast<int>(std::ceil(ms_between(now, end)));
      wait_ms = std::clamp(wait_ms, 0, 100);
    }
    const int n = ::epoll_wait(ep, events.data(), static_cast<int>(events.size()),
                               options_.busy_poll ? 0 : wait_ms);
    now = Clock::now();
    for (int e = 0; e < n; ++e) {
      const std::uint64_t key = events[static_cast<std::size_t>(e)].data.u64;
      if (key == kTimerKey) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t r = ::read(tfd, &expirations, sizeof expirations);
        continue;
      }
      const std::size_t i = static_cast<std::size_t>(key);
      const std::uint32_t flags = events[static_cast<std::size_t>(e)].events;
      if (flags & EPOLLOUT) try_write(i, now);
      if (flags & (EPOLLIN | EPOLLERR | EPOLLHUP)) on_readable(i, now, !open, end);
    }
  }

  stats.seconds = seconds_between(start, std::max(last_completion, open ? due_of(total) : end));
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (tfd >= 0) ::close(tfd);
  ::close(ep);
  return stats;
}

}  // namespace prmbench
