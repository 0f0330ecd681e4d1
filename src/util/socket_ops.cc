#include "util/socket_ops.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace texrheo {

ssize_t SocketOps::Recv(int fd, void* buf, size_t len) {
  return ::recv(fd, buf, len, 0);
}

ssize_t SocketOps::Send(int fd, const void* buf, size_t len) {
  // MSG_NOSIGNAL: a peer that resets mid-write must surface as EPIPE, not
  // kill the process with SIGPIPE.
  return ::send(fd, buf, len, MSG_NOSIGNAL);
}

int SocketOps::Accept(int listen_fd) {
  return ::accept(listen_fd, nullptr, nullptr);
}

int SocketOps::Poll(int fd, short events, int timeout_millis) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  return ::poll(&pfd, 1, timeout_millis);
}

int SocketOps::Close(int fd) { return ::close(fd); }

int SocketOps::Shutdown(int fd, int how) { return ::shutdown(fd, how); }

SocketOps& SocketOps::Real() {
  static SocketOps* real = new SocketOps();
  return *real;
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool SetNoDelay(int fd) {
  int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

}  // namespace texrheo
