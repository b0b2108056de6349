#include "src/gateway/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace tono::gateway {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError{what + ": " + std::strerror(errno)};
}

}  // namespace

bool parse_endpoint(const std::string& spec, std::string* host, std::uint16_t* port,
                    std::string* error) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    *error = "expected host:port, got '" + spec + "'";
    return false;
  }
  const std::string port_str = spec.substr(colon + 1);
  char* end = nullptr;
  const long p = std::strtol(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || p < 0 || p > 65535) {
    *error = "port must be 0..65535, got '" + port_str + "'";
    return false;
  }
  *host = spec.substr(0, colon);
  *port = static_cast<std::uint16_t>(p);
  return true;
}

TcpListener::TcpListener(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("TcpListener: socket");
  const int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw TransportError{"TcpListener: bad host '" + host + "'"};
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 8) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("TcpListener: bind/listen on " + host);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("TcpListener: getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TcpTransport> TcpListener::accept() {
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) throw_errno("TcpListener: accept");
  return std::unique_ptr<TcpTransport>{new TcpTransport{fd, /*start_reader=*/true}};
}

std::unique_ptr<TcpTransport> TcpTransport::connect(const std::string& host,
                                                    std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("TcpTransport: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError{"TcpTransport: bad host '" + host + "'"};
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("TcpTransport: connect to " + host);
  }
  return std::unique_ptr<TcpTransport>{new TcpTransport{fd, /*start_reader=*/false}};
}

TcpTransport::TcpTransport(int fd, bool start_reader) : fd_(fd) {
  // Envelopes are small (≤ ~140 B); Nagle would batch them harmlessly but
  // adds latency to paced replay. Best effort — some stacks refuse it.
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (start_reader) {
    reader_ = std::thread{[this] { reader_loop_(); }};
  }
}

TcpTransport::~TcpTransport() {
  close();
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
}

void TcpTransport::reader_loop_() {
  // Continuously drain the socket so the sender never wedges on full kernel
  // buffers between batch barriers. recv() hands the queued bytes on.
  std::uint8_t buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      std::lock_guard<std::mutex> lock{recv_mutex_};
      inbox_.insert(inbox_.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && (errno == EINTR)) continue;
    // 0 = orderly peer close; <0 = error or our own shutdown() — both end
    // the stream.
    peer_closed_.store(true, std::memory_order_release);
    return;
  }
}

bool TcpTransport::try_send(std::span<const std::uint8_t> chunk) {
  // Only the owning shard's mux sends, so whole envelopes go out in order
  // without a lock.
  std::size_t sent = 0;
  while (sent < chunk.size()) {
    const ssize_t n = ::send(fd_, chunk.data() + sent, chunk.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("TcpTransport: send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;  // lossless: the kernel blocked us instead of refusing
}

std::size_t TcpTransport::recv(std::vector<std::uint8_t>& out) {
  std::lock_guard<std::mutex> lock{recv_mutex_};
  const std::size_t n = inbox_.size();
  out.insert(out.end(), inbox_.begin(), inbox_.end());
  inbox_.clear();
  return n;
}

void TcpTransport::close() {
  if (!shutdown_.exchange(true, std::memory_order_acq_rel)) {
    // Wakes the reader thread (its recv returns 0/err) and tells the peer.
    (void)::shutdown(fd_, SHUT_RDWR);
  }
}

bool TcpTransport::closed() const noexcept {
  return peer_closed_.load(std::memory_order_acquire) ||
         shutdown_.load(std::memory_order_acquire);
}

}  // namespace tono::gateway
