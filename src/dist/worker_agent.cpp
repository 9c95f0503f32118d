#include "dist/worker_agent.hpp"

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <new>
#include <stop_token>
#include <thread>

#include "core/remote_eval.hpp"
#include "dist/protocol.hpp"
#include "proc/protocol.hpp"
#include "support/check.hpp"
#include "support/shutdown.hpp"
#include "support/tcp.hpp"

namespace peak::dist {

int WorkerAgent::serve(int fd, RateFn rate) {
  proc::ignore_sigpipe_once();
  const bool forked = static_cast<bool>(rate);
  // Frame writes from the serve loop and the heartbeat thread share one
  // socket; the mutex keeps frames atomic.
  std::mutex write_mutex;
  const auto write = [&write_mutex, fd](const std::string& payload) {
    std::lock_guard lock(write_mutex);
    return proc::write_frame(fd, payload);
  };
  int status = 0;
  {
    // One hb frame per interval from hello until the session ends, started
    // before the (potentially long) scenario rebuild so the coordinator
    // never mistakes profiling for death.
    std::jthread heartbeat([&write, this](std::stop_token stop) {
      const std::chrono::milliseconds interval(
          options_.heartbeat_interval_ms);
      std::mutex mutex;
      std::condition_variable_any wake;
      std::unique_lock lock(mutex);
      try {
        for (std::uint64_t seq = 0;; ++seq) {
          wake.wait_for(lock, stop, interval, [] { return false; });
          if (stop.stop_requested() || !write(heartbeat_frame(seq)))
            return;
        }
      } catch (const std::bad_alloc&) {
        // Stop beating rather than terminate the process: a worker that
        // stays silent is declared dead by the coordinator.
      }
    });
    const auto fail = [&status](const std::string& why) {
      std::fprintf(stderr, "peak worker: %s\n", why.c_str());
      status = 1;
    };
    bool done = !forked && !write(hello_frame(options_.name));
    if (done) status = 1;
    proc::FrameReader reader;
    std::uint64_t tasks_done = 0;
    while (!done) {
      char buf[65536];
      const ssize_t got = ::read(fd, buf, sizeof buf);
      if (got <= 0) break;  // coordinator gone: a clean end for an agent
      reader.feed(buf, static_cast<std::size_t>(got));
      std::optional<std::string> payload;
      while (!done && (payload = reader.next())) {
        done = true;  // every branch but a served task ends the session
        try {
          const core::jsonl::JsonValue record = parse_frame(*payload);
          const std::string op = frame_op(record);
          if (op == "session" && !rate) {
            const std::uint64_t version = record.at("version").as_u64();
            PEAK_CHECK(version == kDistProtocolVersion,
                       "coordinator protocol version " +
                           std::to_string(version) + " != " +
                           std::to_string(kDistProtocolVersion));
            auto host = std::make_shared<core::RemoteRatingHost>(
                parse_session_spec(record.at("spec")));
            rate = [host](const TaskFrame& task) {
              return host->rate(task.task);
            };
            done = !write(ready_frame());
            if (done) status = 1;
          } else if (op == "task" && rate) {
            std::uint64_t id = 0;
            std::string reply;
            try {
              id = record.at("id").as_u64();
              reply = result_frame(id, rate(parse_task_frame(record)));
            } catch (const std::exception& e) {
              if (forked) throw;
              reply = error_frame(id, e.what());
            }
            // A failed write means the coordinator is gone: a clean end.
            // The max_tasks hook dies like a crashed worker instead:
            // the socket drops mid-session with no goodbye.
            done = !write(reply) ||
                   (options_.max_tasks != 0 &&
                    ++tasks_done >= options_.max_tasks);
          } else if (op == "refuse") {
            fail("refused: " + record.at("reason").as_string());
          } else if (op == "bye") {
            // A forked child leaves at once, without the heartbeat join:
            // its round is waiting for the reap.
            if (forked) _exit(0);
          } else {
            fail("unexpected frame '" + op + "'");
          }
        } catch (const support::CheckError& e) {
          if (forked) throw;
          fail(e.what());
        }
      }
      if (reader.corrupted()) {
        fail("corrupt stream");
        break;
      }
    }
  }
  ::close(fd);
  return status;
}

int WorkerAgent::run() {
  proc::ignore_sigpipe_once();
  if (!options_.listen) {
    std::string error;
    const int fd =
        support::tcp_connect(options_.connect_host, options_.connect_port,
                             options_.connect_timeout_ms, &error);
    if (fd < 0) {
      std::fprintf(stderr, "peak worker: %s\n", error.c_str());
      return 1;
    }
    return serve(fd);
  }
  support::TcpListener listener;
  std::string error;
  if (!listener.listen(options_.listen_port, options_.loopback_only,
                       &error)) {
    std::fprintf(stderr, "peak worker: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "peak worker: listening on port %u\n",
               listener.port());
  while (!support::shutdown_requested()) {
    pollfd pfd{listener.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 200) <= 0) continue;
    const int fd = listener.accept_ready();
    if (fd < 0) continue;
    const int status = serve(fd);
    if (status != 0)
      std::fprintf(stderr, "peak worker: session ended with status %d\n",
                   status);
  }
  return 0;
}

}  // namespace peak::dist
