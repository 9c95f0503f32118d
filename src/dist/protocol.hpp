#pragma once

/// \file protocol.hpp
/// Wire protocol of the worker runtime (`peak::dist`). Frames reuse the
/// `proc` framing verbatim — eight lowercase hex digits of payload
/// length, then a single-line JSONL record — over a TCP socket or a
/// forked worker's socketpair alike. Doubles travel as 16-hex IEEE-754
/// bit patterns (core/jsonl), so a session spec and a memo entry
/// round-trip bit-exactly; that is a precondition of the coordinator's
/// bit-identity guarantee, not a nicety.
///
/// Conversation (docs/INTERNALS.md §12); a forked worker is born ready
/// and starts at the task frames:
///
///   worker → coord   {"op":"hello","version":1,"name":…}
///   coord  → worker  {"op":"session","version":1,"spec":{…}}
///                    or {"op":"refuse","reason":…} then close
///   worker → coord   {"op":"ready"}           (scenario rebuilt, profiled)
///   coord  → worker  {"op":"task","id":N,"attempt":A,…}
///   worker → coord   {"op":"result","id":N,"payload":…}
///                    {"op":"err","id":N,"what":…}   (rating host threw)
///                    {"op":"hb","seq":N}            (liveness, 100ms-ish)
///   coord  → worker  {"op":"bye"}             (end of session or round)
///
/// The version field is checked on both sides of the handshake; a
/// mismatch gets an explicit refuse frame (so the operator sees *why*
/// the worker exited) instead of a protocol error downstream.

#include <cstdint>
#include <string>

#include "core/jsonl.hpp"
#include "core/remote_eval.hpp"

namespace peak::dist {

/// Bump on any frame-shape or SessionSpec change. Handshakes between
/// different versions are refused, never guessed at.
constexpr std::uint64_t kDistProtocolVersion = 1;

// ---- frame builders (payloads; wrap with proc::write_frame) ----------

[[nodiscard]] std::string hello_frame(const std::string& name);
[[nodiscard]] std::string session_frame(const core::SessionSpec& spec);
[[nodiscard]] std::string refuse_frame(const std::string& reason);
[[nodiscard]] std::string ready_frame();
[[nodiscard]] std::string task_frame(std::uint64_t id, unsigned attempt,
                                     const core::RemoteMemberTask& task);
[[nodiscard]] std::string result_frame(std::uint64_t id,
                                       const std::string& payload);
[[nodiscard]] std::string error_frame(std::uint64_t id,
                                      const std::string& what);
[[nodiscard]] std::string heartbeat_frame(std::uint64_t seq);
[[nodiscard]] std::string bye_frame();

// ---- frame decoding ---------------------------------------------------

/// Parse one frame payload and return its record; throws
/// support::CheckError on malformed JSON (the peer is broken).
[[nodiscard]] core::jsonl::JsonValue parse_frame(const std::string& payload);

/// The record's "op" field ("" when absent).
[[nodiscard]] std::string frame_op(const core::jsonl::JsonValue& record);

/// Decoded {"op":"task"} frame.
struct TaskFrame {
  std::uint64_t id = 0;
  unsigned attempt = 0;
  core::RemoteMemberTask task;
};

/// Throws support::CheckError on a malformed record (missing field, bad
/// method name, bad config key alphabet).
[[nodiscard]] core::SessionSpec parse_session_spec(
    const core::jsonl::JsonValue& spec);
[[nodiscard]] TaskFrame parse_task_frame(
    const core::jsonl::JsonValue& record);

/// SessionSpec body only (the value of the session frame's "spec" key) —
/// exposed so tests can round-trip specs without a socket.
[[nodiscard]] std::string serialize_session_spec(
    const core::SessionSpec& spec);

}  // namespace peak::dist
