// tcp_transport.hpp — the Fig. 3 link over a real socket.
//
// A localhost (or LAN) TCP stream behind the same Transport interface as
// the in-process loopback, so `ward_server --transport tcp` switches wires
// with one flag and every determinism test keeps passing: TCP preserves
// byte order and loses nothing, so a clean-wire run is bit-identical to
// loopback (GatewayFleet.TcpIngestIsBitIdenticalToDirect).
//
// Backpressure mapping: TCP cannot shed (lossless() == true, drop_oldest
// returns empty), so transport saturation always maps onto the kBlock
// policy — try_send loops the kernel write until the whole envelope is on
// the wire and never returns false. The one real deadlock hazard of a
// barrier-paced demux (sender fills both kernel socket buffers while the
// receiver only reads at the next batch barrier) is closed by a dedicated
// reader thread on the receiving side: it drains the socket continuously
// into an in-process queue, and recv() serves from that queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/gateway/transport.hpp"

namespace tono::gateway {

/// Thrown on socket-layer failures (bind/listen/connect/accept/IO). CI
/// treats an environment that cannot create localhost sockets as a skip,
/// not a failure — see tests/test_gateway.cpp.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class TcpTransport;

/// Parses "host:port" with a numeric port in [0, 65535] (0 = ephemeral).
/// Returns false and fills `error` on a malformed spec — never clamps.
[[nodiscard]] bool parse_endpoint(const std::string& spec, std::string* host,
                                  std::uint16_t* port, std::string* error);

/// Listening endpoint (the "computer system" side of the USB link).
/// `port() == 0` in the constructor binds an ephemeral port; read it back
/// after construction to tell the connecting side where to go.
class TcpListener {
 public:
  explicit TcpListener(const std::string& host = "127.0.0.1",
                       std::uint16_t port = 0);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Blocks until one peer connects; the returned transport owns the
  /// accepted socket and runs a reader thread (it is the receiving side).
  [[nodiscard]] std::unique_ptr<TcpTransport> accept();

 private:
  int fd_{-1};
  std::uint16_t port_{0};
};

/// One connected TCP stream. The receiving side (from TcpListener::accept)
/// spawns the reader thread; the connecting side (TcpTransport::connect)
/// is send-only in the gateway topology and skips it.
class TcpTransport final : public Transport {
 public:
  /// Sensor-side endpoint: connects to a listening gateway.
  [[nodiscard]] static std::unique_ptr<TcpTransport> connect(
      const std::string& host, std::uint16_t port);

  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] bool try_send(std::span<const std::uint8_t> chunk) override;
  [[nodiscard]] std::vector<std::uint8_t> drop_oldest() override { return {}; }
  [[nodiscard]] bool lossless() const noexcept override { return true; }
  std::size_t recv(std::vector<std::uint8_t>& out) override;
  void close() override;
  [[nodiscard]] bool closed() const noexcept override;

 private:
  friend class TcpListener;
  TcpTransport(int fd, bool start_reader);
  void reader_loop_();

  int fd_;
  mutable std::mutex recv_mutex_;  ///< guards inbox_ against the reader thread
  std::vector<std::uint8_t> inbox_;
  std::thread reader_;
  std::atomic<bool> peer_closed_{false};
  std::atomic<bool> shutdown_{false};
};

}  // namespace tono::gateway
