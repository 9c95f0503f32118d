#pragma once

/// \file worker_agent.hpp
/// Worker side of the worker runtime (`peak::dist`): the one serve loop
/// behind both kinds of worker. A TCP agent (`peak worker`) serves one
/// coordinator session at a time — handshake, rebuild the tuning scenario
/// from the SessionSpec, then a task loop that rates shipped batch
/// members through the exact in-process batch-member code path and
/// streams the serialized deltas back. A forked local worker runs the
/// same loop on its socketpair with a rate callback bound at fork time.
/// A heartbeat thread keeps the coordinator's liveness clock fed (its
/// writes share a mutex with result frames), and every rating is a pure
/// function of the task descriptor, so a worker can die, rejoin, or be
/// replaced without perturbing the run's bit-identical outcome.

#include <cstdint>
#include <functional>
#include <string>

#include "dist/protocol.hpp"

namespace peak::dist {

struct WorkerOptions {
  /// Connect mode: dial the coordinator at host:port, serve the session,
  /// exit when it ends (`peak worker --connect host:port`).
  std::string connect_host;
  std::uint16_t connect_port = 0;
  /// Listen mode: accept coordinators on this port, one session at a
  /// time, until shut down (`peak worker --listen PORT`). Active when
  /// `listen` is true.
  bool listen = false;
  std::uint16_t listen_port = 0;
  bool loopback_only = false;
  /// Heartbeat cadence; must comfortably beat the coordinator's
  /// heartbeat_timeout.
  int heartbeat_interval_ms = 100;
  /// Advertised in the hello frame and shown in the coordinator's fleet
  /// table ("" = the agent's peer address as seen by the coordinator).
  std::string name;
  /// Test/bench hook: after this many completed tasks the agent drops
  /// the connection abruptly — no bye, mid-session — to exercise the
  /// coordinator's requeue path. 0 = unlimited.
  std::uint64_t max_tasks = 0;
  /// Timeout for the connect-mode dial.
  int connect_timeout_ms = 10'000;
};

class WorkerAgent {
public:
  /// Rates one task, returning the serialized member delta.
  using RateFn = std::function<std::string(const TaskFrame&)>;

  explicit WorkerAgent(WorkerOptions options) : options_(std::move(options)) {}

  /// Serve one coordinator session on an established connection. Owns
  /// and closes `fd`. Without `rate` (a TCP agent) the session starts
  /// with the hello/session handshake, tasks are rated on a
  /// RemoteRatingHost rebuilt from the spec, and a task that throws is
  /// answered with an err frame. With `rate` (a forked worker, whose
  /// copy-on-write snapshot is the scenario) the connection is born
  /// ready, an exception from `rate` propagates so the process exits
  /// with its classified status, and a bye frame _exit()s the process
  /// with status 0 at once. Returns 0 on a graceful end (bye frame,
  /// coordinator gone, or the max_tasks hook tripping), non-zero on
  /// refusal or a protocol/scenario error (a diagnostic goes to stderr).
  int serve(int fd, RateFn rate = {});

  /// Full lifecycle for the CLI: connect mode dials and serves once;
  /// listen mode accepts and serves sessions until a shutdown signal.
  int run();

private:
  WorkerOptions options_;
};

}  // namespace peak::dist
