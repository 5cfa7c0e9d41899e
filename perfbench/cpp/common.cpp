#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace ss::perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Failures enter as +inf: interpolating towards one must not read NaN.
  if (frac == 0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

// ---- ServerProcess ---------------------------------------------------------

ServerProcess::~ServerProcess() { (void)Stop(); }

Expected<std::unique_ptr<ServerProcess>> ServerProcess::Launch(
    const ServerConfig& config) {
  std::vector<std::string> args = {config.binary,
                                   "--serve",
                                   "--listen",
                                   "127.0.0.1:0",
                                   "--workers",
                                   std::to_string(kServedWorkers),
                                   "--loop-threads",
                                   std::to_string(kServedLoopThreads),
                                   "--solver-threads",
                                   std::to_string(kServedSolverThreads),
                                   "--max-pending-solves",
                                   std::to_string(kServedMaxPendingSolves),
                                   "--max-inflight",
                                   std::to_string(kServedMaxInflight)};
  if (!config.tenants_file.empty()) {
    args.push_back("--tenants");
    args.push_back(config.tenants_file);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return InternalError(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return InternalError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The server dies with
    // the generator, however the generator ends.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::unique_ptr<ServerProcess> proc(new ServerProcess());
  proc->pid_ = pid;
  proc->out_fd_ = pipe_fds[0];

  // The server prints "ssched serving on <host>:<port> ..." once it
  // listens; everything before that line is start-up chatter.
  std::string line;
  const std::int64_t give_up = NowNs() + 30'000'000'000LL;
  for (;;) {
    const std::size_t nl = line.find('\n');
    if (nl != std::string::npos) {
      const std::string first = line.substr(0, nl);
      line.erase(0, nl + 1);
      const std::size_t at = first.find("serving on ");
      if (at != std::string::npos) {
        const std::size_t colon = first.find(':', at);
        if (colon != std::string::npos) {
          proc->port_ = std::atoi(first.c_str() + colon + 1);
        }
        if (proc->port_ <= 0) return InternalError("bad banner: " + first);
        return proc;
      }
      continue;
    }
    const std::int64_t left_ms = (give_up - NowNs()) / 1'000'000;
    if (left_ms <= 0) return DeadlineExceededError("server never listened");
    pollfd pfd{proc->out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(proc->out_fd_, buf, sizeof(buf));
    if (n <= 0) return InternalError("server exited before listening");
    line.append(buf, static_cast<std::size_t>(n));
  }
}

double ServerProcess::CpuSeconds() const {
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0.0;
  double total_ns = 0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream f(dir + "/" + e->d_name + "/schedstat");
    double on_cpu_ns = 0;
    if (f >> on_cpu_ns) total_ns += on_cpu_ns;
  }
  ::closedir(d);
  return total_ns * 1e-9;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      f >> kb;
      return kb / 1024.0;
    }
    f.ignore(1 << 16, '\n');
  }
  return 0.0;
}

Status ServerProcess::Stop() {
  if (pid_ <= 0) return OkStatus();
  ::kill(pid_, SIGTERM);
  // Drain the pipe so the server's exit summary never blocks on a full
  // pipe, then reap it.
  char buf[4096];
  while (out_fd_ >= 0) {
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    ::close(out_fd_);
    out_fd_ = -1;
  }
  int wstatus = 0;
  while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return InternalError("server exited abnormally (status " +
                         std::to_string(wstatus) + ")");
  }
  return OkStatus();
}

// ---- Output ----------------------------------------------------------------

bool PrintResult(const std::string& prefix, const RunResult& result) {
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "error: %s/%s is not a finite number\n",
                   prefix.c_str(), m.name.c_str());
      return false;
    }
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (const Metric& m : result.reported) {
    std::printf("%s/%s %.6g %s (reported, not gated)\n", prefix.c_str(),
                m.name.c_str(), m.value, m.unit.c_str());
  }
  bool first = true;
  for (const Metric& m : result.metrics) {
    std::printf("%s/%s %.6g %s\n", prefix.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
    json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << m.value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace ss::perfbench
