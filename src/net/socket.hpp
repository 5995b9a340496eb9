// Thin POSIX socket layer under the wire protocol: RAII fds, unix-domain
// listen/connect/accept, and exact-length reads/writes that survive
// partial transfers and EINTR.
//
// Everything here is deliberately blocking: the serving boundary's
// concurrency model is one reader thread per connection (src/net/server.hpp)
// and reply writes serialized by a per-connection mutex, so nonblocking
// I/O would buy state machines without buying parallelism. Writes use
// send(MSG_NOSIGNAL), so a peer that vanished yields a clean false
// instead of SIGPIPE.
#pragma once

#include <cstddef>
#include <string>

namespace gee::net {

/// Longest unix-domain socket path this layer accepts: sockaddr_un's
/// sun_path is 108 bytes on Linux and the terminating NUL takes one.
inline constexpr std::size_t kMaxSocketPathLen = 107;

/// Move-only owner of one file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset() noexcept;

  /// shutdown(SHUT_RDWR): unblocks any thread parked in read/accept on
  /// this fd without racing the close (the fd number stays reserved).
  void shutdown_both() const noexcept;

 private:
  int fd_ = -1;
};

/// Bind + listen on a unix-domain socket, unlinking any stale file at
/// `path` first. Throws std::system_error on failure and
/// std::invalid_argument for paths sun_path cannot hold.
[[nodiscard]] Fd listen_unix(const std::string& path, int backlog);

/// Connect to a listening unix-domain socket. Throws like listen_unix.
[[nodiscard]] Fd connect_unix(const std::string& path);

/// Accept one connection; an invalid Fd means the listener was shut down
/// or closed (the orderly exit signal for an accept loop). Any other
/// accept failure -- fd exhaustion (EMFILE/ENFILE), ENOBUFS, ENOMEM -- is
/// counted as gee.net.accept_errors and retried after a 10 ms back-off,
/// so a full fd table stalls accepting only until fds free up.
[[nodiscard]] Fd accept_unix(const Fd& listener);

/// Read exactly `n` bytes, retrying partial reads and EINTR. False on
/// EOF or error -- for a framed protocol both mean the same thing: this
/// connection is over.
[[nodiscard]] bool read_exactly(const Fd& fd, void* buf, std::size_t n);

/// Write all `n` bytes (send with MSG_NOSIGNAL), retrying partial writes
/// and EINTR. False on error; never raises SIGPIPE.
[[nodiscard]] bool write_all(const Fd& fd, const void* data, std::size_t n);

/// Bound every subsequent read on `fd` to `seconds` (SO_RCVTIMEO); a
/// timed-out read fails like an error. Zero restores blocking forever.
void set_recv_timeout(const Fd& fd, double seconds);

}  // namespace gee::net
