#include "net/socket.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "obs/metrics.hpp"

namespace gee::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() > kMaxSocketPathLen ||
      path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("unix socket path '" + path +
                                "' empty or longer than " +
                                std::to_string(kMaxSocketPathLen) + " bytes");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Fd::shutdown_both() const noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Fd listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = make_address(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_UNIX)");
  // A stale socket file from a killed server would make bind fail with
  // EADDRINUSE; connect_unix against it fails ECONNREFUSED, so unlinking
  // here never steals a live listener's clients by accident... it steals
  // the PATH of a live listener, which is why one path belongs to one
  // server (the caller's contract).
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind('" + path + "')");
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen('" + path + "')");
  return fd;
}

Fd connect_unix(const std::string& path) {
  const sockaddr_un addr = make_address(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_UNIX)");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("connect('" + path + "')");
  }
  return fd;
}

Fd accept_unix(const Fd& listener) {
  for (;;) {
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd >= 0) return Fd(fd);
    if (errno == EINTR || errno == ECONNABORTED) continue;
    // EINVAL: listener shut down (the stop path); EBADF/ENOTSOCK: closed.
    if (errno == EINVAL || errno == EBADF || errno == ENOTSOCK) return Fd{};
    // Anything else (EMFILE, ENFILE, ENOBUFS, ENOMEM, ...) is a resource
    // shortage that outlives an immediate retry: the pending connection
    // stays queued, so back off and accept it once fds or memory free up.
    obs::counter("gee.net.accept_errors").add();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

bool read_exactly(const Fd& fd, void* buf, std::size_t n) {
  auto* out = static_cast<char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd.get(), out + done, n - done);
    if (got > 0) {
      done += static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;  // EOF (0) or error
  }
  return true;
}

bool write_all(const Fd& fd, const void* data, std::size_t n) {
  const auto* in = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t sent = ::send(fd.get(), in + done, n - done, MSG_NOSIGNAL);
    if (sent > 0) {
      done += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void set_recv_timeout(const Fd& fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      std::lround((seconds - static_cast<double>(tv.tv_sec)) * 1e6));
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(SO_RCVTIMEO)");
  }
}

}  // namespace gee::net
