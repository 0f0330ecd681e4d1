#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>

#include "bench_util.h"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// How long a phase waits for answers after its last send.
constexpr double kDrainSeconds = 5.0;
/// Saturation throughput is taken over windows of this length.
constexpr double kWindowSeconds = 0.25;
/// How long SyncClient waits for an answer.
constexpr auto kRoundTripTimeout = std::chrono::seconds(60);

/// The CPU ReserveGeneratorCpu kept for the generator; -1 when none.
int generator_cpu = -1;

int ConnectOne(int port, bool nonblocking) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  std::deque<size_t> inflight;
  bool dead = false;
};

/// Sends what `c` has buffered without blocking; false when the socket died.
bool Flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    ssize_t n = ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_pos += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  }
  return true;
}

/// Reads what is available; calls on_line(line) for each complete line.
/// False when the peer closed or the socket failed.
template <typename OnLine>
bool Receive(Conn& c, OnLine on_line) {
  char buf[65536];
  for (;;) {
    ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      c.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const bool alive = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    size_t start = 0;
    for (size_t nl = c.in.find('\n'); nl != std::string::npos;
         nl = c.in.find('\n', start)) {
      on_line(c.in.substr(start, nl - start));
      start = nl + 1;
    }
    c.in.erase(0, start);
    return alive;
  }
}

std::vector<pollfd> PollSet(const std::vector<Conn>& conns) {
  std::vector<pollfd> pfds;
  for (const Conn& c : conns) {
    short events = c.dead ? 0 : POLLIN;
    if (!c.dead && !c.out.empty()) events |= POLLOUT;
    pfds.push_back({c.dead ? -1 : c.fd, events, 0});
  }
  return pfds;
}

/// Never sleeps: a thread woken from sleep on a shared host can run
/// milliseconds late, so the generator spins on its own CPU instead.
void Poll(std::vector<pollfd>& pfds) {
  ::poll(pfds.data(), pfds.size(), 0);
}

std::vector<Conn> MakeConns(const std::vector<int>& fds) {
  std::vector<Conn> conns(fds.size());
  for (size_t i = 0; i < fds.size(); ++i) conns[i].fd = fds[i];
  return conns;
}

/// A connection that died takes its unanswered requests with it.
void Kill(Conn& c, PhaseResult* result, uint64_t* outstanding) {
  c.dead = true;
  result->failed += c.inflight.size();
  *outstanding -= c.inflight.size();
  c.inflight.clear();
}

bool IsErr(const std::string& line) { return line.rfind("OK", 0) != 0 &&
                                             line.rfind('{', 0) != 0; }

}  // namespace

GeneratorCpuScope::GeneratorCpuScope() {
  if (generator_cpu < 0 ||
      pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(generator_cpu, &one);
  pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

GeneratorCpuScope::~GeneratorCpuScope() {
  if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

void ReserveGeneratorCpu() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0 || CPU_COUNT(&mask) < 2) {
    return;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) last = cpu;
  }
  CPU_CLR(last, &mask);
  if (sched_setaffinity(0, sizeof(mask), &mask) == 0) generator_cpu = last;
}

std::vector<int> ConnectAll(int port, int n) {
  std::vector<int> fds;
  for (int i = 0; i < n; ++i) {
    int fd = ConnectOne(port, /*nonblocking=*/true);
    if (fd < 0) {
      CloseAll(fds);
      return {};
    }
    fds.push_back(fd);
  }
  return fds;
}

void CloseAll(std::vector<int>& fds) {
  for (int fd : fds) ::close(fd);
  fds.clear();
}

PhaseResult OpenLoop(const std::vector<int>& fds, const LineSource& lines,
                     double rate, double seconds, bool keep_responses) {
  GeneratorCpuScope pinned;
  PhaseResult result;
  std::vector<Conn> conns = MakeConns(fds);
  const size_t total = static_cast<size_t>(rate * seconds);
  result.attempted = total;
  result.latency_us.assign(total, kInf);
  result.lag_us.assign(total, kInf);
  if (keep_responses) result.responses.resize(total);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  auto due = [&](size_t i) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate));
  };
  auto us_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  size_t next = 0;
  uint64_t outstanding = 0;
  const Clock::time_point drain_deadline =
      due(total) + std::chrono::milliseconds(
                       static_cast<int64_t>(kDrainSeconds * 1e3));
  for (;;) {
    Clock::time_point now = Clock::now();
    while (next < total && due(next) <= now) {
      Conn& c = conns[next % conns.size()];
      if (c.dead) {
        ++result.failed;
      } else {
        c.out += lines(next);
        c.out.push_back('\n');
        c.inflight.push_back(next);
        ++outstanding;
        result.lag_us[next] = us_between(due(next), now);
      }
      ++next;
    }
    for (Conn& c : conns) {
      if (!c.dead && !c.out.empty() && !Flush(c)) Kill(c, &result, &outstanding);
    }
    if (next == total && (outstanding == 0 || now > drain_deadline)) break;
    std::vector<pollfd> pfds = PollSet(conns);
    Poll(pfds);
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.dead || (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      const Clock::time_point arrived = Clock::now();
      bool alive = Receive(c, [&](std::string line) {
        if (c.inflight.empty()) return;  // Unsolicited line: ignored.
        const size_t idx = c.inflight.front();
        c.inflight.pop_front();
        --outstanding;
        if (IsErr(line)) {
          ++result.failed;
        } else {
          result.latency_us[idx] = us_between(due(idx), arrived);
        }
        if (keep_responses) result.responses[idx] = std::move(line);
      });
      if (!alive) Kill(c, &result, &outstanding);
    }
  }
  result.failed += outstanding;  // Never answered within the drain.
  return result;
}

PhaseResult Saturate(const std::vector<int>& fds, const LineSource& lines,
                     size_t first_index, int window, double seconds,
                     double warmup_fraction) {
  GeneratorCpuScope pinned;
  PhaseResult result;
  std::vector<Conn> conns = MakeConns(fds);
  size_t next = first_index;
  uint64_t outstanding = 0;
  std::vector<uint64_t> completed;  // Per window after the warm-up.
  const Clock::time_point start = Clock::now();
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const Clock::time_point end = start + span;
  const Clock::time_point window_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds * warmup_fraction));
  auto send_one = [&](Conn& c) {
    c.out += lines(next);
    c.out.push_back('\n');
    c.inflight.push_back(next++);
    ++outstanding;
  };
  for (Conn& c : conns) {
    for (int w = 0; w < window; ++w) send_one(c);
  }
  const Clock::time_point drain_deadline =
      end + std::chrono::milliseconds(static_cast<int64_t>(kDrainSeconds * 1e3));
  for (;;) {
    const Clock::time_point now = Clock::now();
    for (Conn& c : conns) {
      if (!c.dead && !c.out.empty() && !Flush(c)) Kill(c, &result, &outstanding);
    }
    if (now >= end && (outstanding == 0 || now > drain_deadline)) break;
    std::vector<pollfd> pfds = PollSet(conns);
    Poll(pfds);
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.dead || (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      const Clock::time_point arrived = Clock::now();
      bool alive = Receive(c, [&](const std::string& line) {
        if (c.inflight.empty()) return;
        c.inflight.pop_front();
        --outstanding;
        if (IsErr(line)) ++result.failed;
        if (arrived >= window_start && arrived < end) {
          const size_t w = static_cast<size_t>(
              std::chrono::duration<double>(arrived - window_start).count() /
              kWindowSeconds);
          if (completed.size() <= w) completed.resize(w + 1, 0);
          ++completed[w];
        }
        if (arrived < end) send_one(c);
      });
      if (!alive) Kill(c, &result, &outstanding);
    }
  }
  result.failed += outstanding;
  result.attempted = next - first_index;
  // Only whole windows count; the median window is the rate the program
  // sustained for most of the phase.
  const size_t whole = static_cast<size_t>(
      std::chrono::duration<double>(end - window_start).count() / kWindowSeconds);
  completed.resize(whole, 0);
  std::vector<double> rates;
  for (uint64_t c : completed) rates.push_back(static_cast<double>(c) / kWindowSeconds);
  result.throughput = Median(rates);
  return result;
}

SyncClient::SyncClient(int port) : fd_(ConnectOne(port, /*nonblocking=*/true)) {}

SyncClient::~SyncClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string SyncClient::RoundTrip(const std::string& line) {
  if (fd_ < 0) return "";
  const std::string payload = line + "\n";
  const Clock::time_point deadline = Clock::now() + kRoundTripTimeout;
  size_t sent = 0;
  while (sent < payload.size()) {
    ssize_t n = ::send(fd_, payload.data() + sent, payload.size() - sent,
                       MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n == 0 || (errno != EINTR && errno != EAGAIN &&
                          errno != EWOULDBLOCK) ||
               Clock::now() > deadline) {
      return "";
    }
  }
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string out = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return out;
    }
    char buf[65536];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || (errno != EINTR && errno != EAGAIN &&
                          errno != EWOULDBLOCK) ||
               Clock::now() > deadline) {
      return "";
    }
  }
}

}  // namespace perfbench
