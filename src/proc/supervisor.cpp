#include "proc/supervisor.hpp"

#include <errno.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <new>

#include "support/check.hpp"

namespace peak::proc {

namespace {

DispatchHook the_dispatch_hook;
DrainHook the_drain_hook;

void apply_limits(const ResourceLimits& limits) {
  struct rlimit rl;
  if (limits.cpu_seconds > 0) {
    rl.rlim_cur = limits.cpu_seconds;
    rl.rlim_max = limits.cpu_seconds + 1;  // SIGKILL backstop at hard cap
    setrlimit(RLIMIT_CPU, &rl);
  }
  if (limits.address_space_bytes > 0) {
    rl.rlim_cur = rl.rlim_max = limits.address_space_bytes;
    setrlimit(RLIMIT_AS, &rl);
  }
  rl.rlim_cur = rl.rlim_max = 0;
  setrlimit(RLIMIT_CORE, &rl);
}

}  // namespace

void set_dispatch_hook(DispatchHook hook) {
  the_dispatch_hook = std::move(hook);
}
const DispatchHook& dispatch_hook() { return the_dispatch_hook; }

void set_drain_hook(DrainHook hook) { the_drain_hook = std::move(hook); }
const DrainHook& drain_hook() { return the_drain_hook; }

const char* to_string(ExitClass cls) {
  switch (cls) {
    case ExitClass::kClean: return "clean";
    case ExitClass::kSignal: return "signal";
    case ExitClass::kTimeout: return "timeout";
    case ExitClass::kOom: return "oom";
    case ExitClass::kNonzero: return "nonzero";
  }
  return "unknown";
}

bool TaskOutcome::failures_identical() const {
  if (failures.empty()) return false;
  for (const WorkerFailure& f : failures)
    if (f.signature != failures.front().signature) return false;
  return true;
}

ForkedWorker::ForkedWorker(const ResourceLimits& limits,
                           const std::vector<int>& close_in_child,
                           const std::function<int(int fd)>& body) {
  int ends[2];
  PEAK_CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, ends) == 0,
             "socketpair() failed forking a worker");
  pid_ = fork();
  if (pid_ < 0) {
    close(ends[0]);
    close(ends[1]);
    PEAK_CHECK(false, "fork() failed forking a worker");
  }
  if (pid_ == 0) {
    close(ends[0]);
    for (int fd : close_in_child) close(fd);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    apply_limits(limits);
    int code = kExitTaskError;
    try {
      code = body(ends[1]);
    } catch (const std::bad_alloc&) {
      code = kExitOom;  // RLIMIT_AS (or genuine exhaustion) tripped
    } catch (...) {
    }
    _exit(code);
  }
  close(ends[1]);
  fd_ = ends[0];
}

ForkedWorker::~ForkedWorker() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    reap(/*told_to_exit=*/false);
  }
  close(fd_);
}

int ForkedWorker::escalate(std::chrono::milliseconds grace) {
  const auto now = std::chrono::steady_clock::now();
  if (!term_sent_) {
    term_sent_ = true;
    term_at_ = now;
    kill(pid_, SIGTERM);
    return SIGTERM;
  }
  if (kill_sent_ || now - term_at_ <= grace) return 0;
  kill_sent_ = true;
  kill(pid_, SIGKILL);
  return SIGKILL;
}

std::optional<WorkerFailure> ForkedWorker::reap(bool told_to_exit) {
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (told_to_exit && WIFEXITED(status) && WEXITSTATUS(status) == 0)
    return std::nullopt;

  WorkerFailure failure;
  const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  failure.detail = sig != 0 ? sig : code;
  if (term_sent_ || sig == SIGXCPU) {
    failure.cls = ExitClass::kTimeout;
    failure.signature = term_sent_ ? "timeout" : "cpu-limit";
  } else if (sig != 0) {
    failure.cls = ExitClass::kSignal;
    failure.signature = "signal:" + std::to_string(sig);
  } else if (code == kExitOom) {
    failure.cls = ExitClass::kOom;
    failure.signature = "oom";
  } else {
    // Exit 0 without being told to is still a lost worker.
    failure.cls = code == 0 ? ExitClass::kClean : ExitClass::kNonzero;
    failure.signature = "exit:" + std::to_string(code);
  }
  return failure;
}

}  // namespace peak::proc
