#include "procs.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "wire.hpp"

namespace prmbench {

void ServeProcess::start(const std::string& cli, const std::vector<std::string>& args,
                         const std::string& log_path, const cpu_set_t* cpus) {
  kill9();
  // Everything the child touches is prepared before fork: after it, only
  // async-signal-safe calls are allowed.
  std::vector<std::string> storage;
  storage.push_back(cli);
  storage.push_back("serve");
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // the benchmark already died
    // The forking thread may be the generator, which raised its priority:
    // every server runs at the default one.
    ::setpriority(PRIO_PROCESS, 0, 0);
    if (cpus) ::sched_setaffinity(0, sizeof *cpus, cpus);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
}

void ServeProcess::kill9() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

std::uint64_t ServeProcess::peak_rss_kb() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

bool wait_healthy(std::uint16_t port, double timeout_s) {
  const std::string probe = http_request("GET", "/healthz");
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  std::string body;
  while (Clock::now() < deadline) {
    if (blocking_exchange(port, probe, body, 1000) == 200) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return false;
}

}  // namespace prmbench
