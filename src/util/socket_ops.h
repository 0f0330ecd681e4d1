#ifndef TEXRHEO_UTIL_SOCKET_OPS_H_
#define TEXRHEO_UTIL_SOCKET_OPS_H_

#include <sys/types.h>

#include <cstddef>

namespace texrheo {

/// Seam over the POSIX socket calls the serving layer's I/O paths use,
/// mirroring the FileOps seam of the durable-write path (util/atomic_file.h):
/// production code talks to Real(); tests substitute a fault-injecting
/// decorator (partial reads/writes, EINTR, ECONNRESET, stalls, flaky
/// accepts) so every degraded-network branch can be driven deterministically
/// without a hostile peer.
///
/// Implementations follow errno conventions: a negative return means failure
/// with the cause in errno, exactly like the underlying syscalls, so callers
/// written against this interface handle real kernels and injected faults
/// identically.
class SocketOps {
 public:
  virtual ~SocketOps() = default;

  /// recv(2): > 0 bytes read, 0 peer closed, -1 error (errno).
  virtual ssize_t Recv(int fd, void* buf, size_t len);
  /// send(2) with MSG_NOSIGNAL; may transfer fewer than `len` bytes.
  virtual ssize_t Send(int fd, const void* buf, size_t len);
  /// accept(2) on a listener: >= 0 connection fd, -1 error (errno).
  virtual int Accept(int listen_fd);
  /// poll(2) on a single fd. `events` is the poll bitmask (POLLIN /
  /// POLLOUT). Returns 1 when ready, 0 on timeout, -1 on error (errno).
  virtual int Poll(int fd, short events, int timeout_millis);
  virtual int Close(int fd);
  virtual int Shutdown(int fd, int how);

  /// Shared pass-through instance backed by the kernel.
  static SocketOps& Real();
};

/// Marks `fd` non-blocking (O_NONBLOCK). The serving layer drives every
/// socket through Poll() + non-blocking Recv/Send so a stalled peer can
/// never park a thread inside a syscall past its deadline.
bool SetNonBlocking(int fd);

/// Disables Nagle's algorithm (TCP_NODELAY) on a connected TCP socket. The
/// line protocol writes one small response per request; with Nagle on, a
/// response sent while the previous one is still unacknowledged waits for
/// the peer's delayed ACK (up to tens of milliseconds) or its next request.
bool SetNoDelay(int fd);

}  // namespace texrheo

#endif  // TEXRHEO_UTIL_SOCKET_OPS_H_
