#include "proc/protocol.hpp"

#include <errno.h>
#include <unistd.h>

#include <csignal>

namespace peak::proc {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return 10 + (c - 'a');
  return -1;
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  std::string frame(kFramePrefixLen, '0');
  std::size_t n = payload.size();
  for (std::size_t i = kFramePrefixLen; i-- > 0; n >>= 4)
    frame[i] = kHexDigits[n & 0xf];
  frame.append(payload);
  return frame;
}

bool write_frame(int fd, std::string_view payload) {
  const std::string frame = encode_frame(payload);
  std::size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n =
        ::write(fd, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void ignore_sigpipe_once() {
  static const bool installed = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)installed;
}

void FrameReader::feed(const char* data, std::size_t n) {
  buffer_.append(data, n);
}

std::optional<std::string> FrameReader::next() {
  if (corrupted_ || buffer_.size() < kFramePrefixLen) return std::nullopt;
  std::size_t len = 0;
  for (std::size_t i = 0; i < kFramePrefixLen; ++i) {
    const int v = hex_value(buffer_[i]);
    if (v < 0) {
      corrupted_ = true;
      return std::nullopt;
    }
    len = (len << 4) | static_cast<std::size_t>(v);
  }
  if (len > kMaxFramePayload) {
    corrupted_ = true;
    return std::nullopt;
  }
  if (buffer_.size() < kFramePrefixLen + len) return std::nullopt;
  std::string payload = buffer_.substr(kFramePrefixLen, len);
  buffer_.erase(0, kFramePrefixLen + len);
  return payload;
}

}  // namespace peak::proc
