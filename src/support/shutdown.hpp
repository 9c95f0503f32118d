#pragma once

/// \file shutdown.hpp
/// Cooperative shutdown for `peak tune`: a SIGINT/SIGTERM handler flips a
/// process-wide flag that long-running loops poll at safe boundaries (the
/// evaluator checks it at batch entry, the worker runtime between
/// dispatches). The first signal requests a graceful stop — the caller
/// unwinds via ShutdownRequested, flushing the journal and rating cache
/// (both are flushed per record anyway), stopping the telemetry server,
/// and reaping worker subprocesses on the way out. A second signal
/// force-exits immediately with the conventional 128+SIGINT status, for
/// when the graceful path itself is wedged.
///
/// The handler is async-signal-safe: it only stores to lock-free atomics
/// (and calls _exit on the second signal). Everything else happens on the
/// thread that polls the flag.

#include <stdexcept>

namespace peak::support {

/// Thrown by check_shutdown() once a shutdown signal arrived. Derives
/// from std::runtime_error so generic catch sites report it sensibly, but
/// callers that want the graceful-exit path catch it by name.
class ShutdownRequested : public std::runtime_error {
public:
  explicit ShutdownRequested(int signal)
      : std::runtime_error("shutdown requested by signal"),
        signal_(signal) {}
  [[nodiscard]] int signal() const { return signal_; }

private:
  int signal_ = 0;
};

/// Install the SIGINT/SIGTERM handlers (idempotent). First signal sets
/// the flag; second _exit(128 + signal)s.
void install_shutdown_handlers();

/// True once a shutdown signal arrived (or request_shutdown() was
/// called).
[[nodiscard]] bool shutdown_requested();

/// The signal number that triggered the request (0 if none, SIGINT for a
/// programmatic request_shutdown()).
[[nodiscard]] int shutdown_signal();

/// Programmatic trigger, equivalent to receiving SIGINT once (tests, and
/// embedders without signal handlers).
void request_shutdown();

/// Throws ShutdownRequested if a shutdown was requested. Poll this at
/// points where unwinding is safe (no half-merged batch state).
void check_shutdown();

/// Clear the flag (tests; also used when a run exits gracefully and a
/// caller wants to start another).
void reset_shutdown();

}  // namespace peak::support
