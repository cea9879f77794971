// prm_cli serve child processes: start, kill -9, peak memory, health wait.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace prmbench {

/// One `prm_cli serve` process. The destructor kills it (SIGKILL) and
/// reaps it; the child also gets SIGKILL if the benchmark dies first.
class ServeProcess {
 public:
  ServeProcess() = default;
  ~ServeProcess() { kill9(); }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  /// Fork + exec `cli serve <args...>`, stdout/stderr appended to `log_path`,
  /// at the default priority and, if `cpus` is given, on those CPUs only.
  /// Throws std::runtime_error when fork fails.
  void start(const std::string& cli, const std::vector<std::string>& args,
             const std::string& log_path, const cpu_set_t* cpus = nullptr);

  /// SIGKILL and wait until the process is gone. No-op when not running.
  void kill9();

  /// VmHWM (peak resident set) in KiB, 0 when unavailable.
  std::uint64_t peak_rss_kb() const;

 private:
  pid_t pid_ = -1;
};

/// Poll GET /healthz until it answers 200; false after `timeout_s`.
bool wait_healthy(std::uint16_t port, double timeout_s);

}  // namespace prmbench
