// Shared low-level socket helpers for the TCP transport and the multi-process bootstrap.
#ifndef MIDWAY_SRC_NET_SOCKET_UTIL_H_
#define MIDWAY_SRC_NET_SOCKET_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace midway {
namespace net {

// Reads exactly n bytes; returns false on EOF or unrecoverable error.
bool ReadExact(int fd, void* buf, size_t n);
// Writes exactly n bytes (MSG_NOSIGNAL); returns false on unrecoverable error.
bool WriteExact(int fd, const void* buf, size_t n);

struct IoSlice {
  const void* data = nullptr;
  size_t size = 0;
};

// Creates a listening IPv4 socket. `port` == 0 picks an ephemeral port; the actual port is
// written back through `port`. Aborts (MIDWAY_CHECK) on socket errors.
int Listen(const std::string& host, uint16_t* port, int backlog = 64);

// Connects to host:port, retrying for up to `timeout_ms` while the peer is not yet
// listening (multi-process bootstrap). Aborts on timeout.
int ConnectWithRetry(const std::string& host, uint16_t port, int timeout_ms = 10'000);

void EnableNodelay(int fd);
// Sets O_NONBLOCK (event-loop sockets). Aborts on fcntl errors.
void SetNonblocking(int fd);

// Per-connection tuning for the mesh data path: TCP_NODELAY (small sync messages must not
// wait for Nagle) plus optional SO_SNDBUF/SO_RCVBUF sizing from the
// MIDWAY_SOCKET_BUFFER_BYTES environment variable (0/unset keeps the kernel default). The
// effective values are logged once per process at Info level.
void TuneSocket(int fd);

}  // namespace net
}  // namespace midway

#endif  // MIDWAY_SRC_NET_SOCKET_UTIL_H_
