#include "net/reactor.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/tcp.hpp"
#include "util/log.hpp"

namespace bifrost::net {
namespace {

/// ConnId layout: top 16 bits = owning worker, low 48 bits = sequence.
constexpr int kWorkerShift = 48;
/// epoll user-data tags for the two non-connection descriptors.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kEventTag = 1;
constexpr std::uint64_t kFirstConnSeq = 2;
constexpr int kMaxIov = 64;

}  // namespace

struct Reactor::Conn {
  int fd = -1;
  ConnId id = 0;
  std::string in;
  std::deque<std::string> out;
  std::size_t out_bytes = 0;        ///< total unwritten bytes queued
  std::size_t out_front_offset = 0; ///< bytes of out.front() already sent
  bool suspended = false;
  bool close_after_flush = false;
  bool peer_closed = false;
  bool want_read = true;    ///< EPOLLIN armed
  bool want_write = false;  ///< EPOLLOUT armed
  bool registered = true;   ///< fd present in the epoll set
  std::chrono::steady_clock::time_point last_active;
};

struct Reactor::Worker {
  std::size_t index = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  TcpListener listener;
  std::unordered_map<ConnId, std::unique_ptr<Conn>> conns;
  std::uint64_t next_seq = kFirstConnSeq;
  std::chrono::steady_clock::time_point last_sweep;
  std::mutex post_mutex;
  std::vector<std::function<void()>> posted;
  std::atomic<std::size_t> open{0};
  std::atomic<std::size_t> suspended{0};
  std::thread thread;
};

Reactor::Reactor(Options options, DataFn on_data)
    : options_(options), on_data_(std::move(on_data)) {
  if (options_.workers == 0) options_.workers = 1;
}

Reactor::~Reactor() { stop(); }

std::size_t Reactor::worker_of(ConnId id) {
  return static_cast<std::size_t>(id >> kWorkerShift);
}

util::Result<void> Reactor::start() {
  if (running_.exchange(true)) return {};
  for (std::size_t i = 0; i < options_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    // Worker 0 resolves an ephemeral port; the rest share it via
    // SO_REUSEPORT so the kernel spreads incoming connections.
    const std::uint16_t bind_port = i == 0 ? options_.port : port_;
    auto listener = TcpListener::bind_reuseport(bind_port, options_.backlog);
    if (!listener.ok()) {
      running_ = false;
      workers_.clear();
      return util::Result<void>::error("reactor: " +
                                       listener.error_message());
    }
    worker->listener = std::move(listener).value();
    if (auto nb = worker->listener.set_non_blocking(); !nb) {
      running_ = false;
      workers_.clear();
      return util::Result<void>::error("reactor: " + nb.error_message());
    }
    if (i == 0) port_ = worker->listener.port();

    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    worker->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (worker->epoll_fd < 0 || worker->event_fd < 0) {
      if (worker->epoll_fd >= 0) ::close(worker->epoll_fd);
      if (worker->event_fd >= 0) ::close(worker->event_fd);
      running_ = false;
      workers_.clear();
      return util::Result<void>::error("reactor: epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->listener.fd(), &ev);
    ev.data.u64 = kEventTag;
    ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->event_fd, &ev);
    worker->last_sweep = std::chrono::steady_clock::now();
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    Worker* raw = worker.get();
    raw->thread = std::thread([this, raw] { worker_loop(*raw); });
  }
  return {};
}

void Reactor::drain() {
  if (!running_.load()) return;
  draining_.store(true);
  for (auto& worker : workers_) {
    Worker* raw = worker.get();
    post(raw->index, [this, raw] {
      raw->listener.close();
      std::vector<ConnId> idle;
      for (const auto& [id, conn] : raw->conns) {
        if (conn->suspended) continue;  // a handler owns it; drain waits
        if (!conn->out.empty()) {
          // Mid-flush response: let it finish, then close.
          conn->close_after_flush = true;
          continue;
        }
        idle.push_back(id);
      }
      for (const ConnId id : idle) close_conn(*raw, id);
    });
  }
}

void Reactor::stop() {
  if (!running_.exchange(false)) return;
  for (auto& worker : workers_) {
    // Wake the loop; it observes running_ == false and exits.
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(worker->event_fd, &one, sizeof one);
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  for (auto& worker : workers_) {
    for (auto& [id, conn] : worker->conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    worker->conns.clear();
    worker->open.store(0);
    worker->suspended.store(0);
    worker->listener.close();
    if (worker->epoll_fd >= 0) ::close(worker->epoll_fd);
    if (worker->event_fd >= 0) ::close(worker->event_fd);
  }
  workers_.clear();
  draining_.store(false);
}

std::size_t Reactor::open_connections() const {
  std::size_t total = 0;
  for (const auto& worker : workers_) total += worker->open.load();
  return total;
}

std::size_t Reactor::suspended_connections() const {
  std::size_t total = 0;
  for (const auto& worker : workers_) total += worker->suspended.load();
  return total;
}

void Reactor::post(std::size_t worker_index, std::function<void()> fn) {
  if (worker_index >= workers_.size()) return;
  Worker& worker = *workers_[worker_index];
  bool first = false;
  {
    const std::lock_guard<std::mutex> lock(worker.post_mutex);
    first = worker.posted.empty();
    worker.posted.push_back(std::move(fn));
  }
  // Only the post that makes the list non-empty wakes the worker: the
  // worker drains the eventfd before it takes the list, so that wakeup
  // is consumed only by a drain whose following take includes this
  // post and every later one queued behind it.
  if (!first) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(worker.event_fd, &one, sizeof one);
}

void Reactor::send(ConnId id, std::vector<std::string> parts,
                   bool close_after) {
  const std::size_t index = worker_of(id);
  if (index >= workers_.size()) return;
  Worker& worker = *workers_[index];
  const auto it = worker.conns.find(id);
  if (it == worker.conns.end()) return;
  queue_output(worker, *it->second, std::move(parts), close_after);
}

void Reactor::complete(ConnId id, std::vector<std::string> parts,
                       bool close_after, std::function<void()> on_done) {
  post(worker_of(id),
       [this, id, parts = std::move(parts), close_after,
        on_done = std::move(on_done)]() mutable {
         Worker& worker = *workers_[worker_of(id)];
         const auto it = worker.conns.find(id);
         if (it != worker.conns.end()) {
           Conn& conn = *it->second;
           if (conn.suspended) {
             conn.suspended = false;
             worker.suspended.fetch_sub(1);
           }
           conn.last_active = std::chrono::steady_clock::now();
           const bool close =
               close_after || conn.peer_closed || draining_.load();
           queue_output(worker, conn, std::move(parts), close);
           // The connection may have been closed by queue_output (write
           // error / overflow); re-resolve before touching it again.
           const auto again = worker.conns.find(id);
           if (again != worker.conns.end() &&
               !again->second->close_after_flush &&
               !again->second->in.empty()) {
             // Pipelined bytes arrived while the handler ran.
             run_data(worker, *again->second);
           } else if (again != worker.conns.end() &&
                      again->second->peer_closed &&
                      again->second->out.empty()) {
             close_conn(worker, id);
           }
         }
         if (on_done) on_done();
       });
}

void Reactor::worker_loop(Worker& worker) {
  std::vector<epoll_event> events(256);
  while (running_.load()) {
    const int n = ::epoll_wait(worker.epoll_fd, events.data(),
                               static_cast<int>(events.size()), 250);
    if (n < 0 && errno != EINTR) {
      util::log_error("reactor", "epoll_wait failed: ", std::strerror(errno));
      return;
    }
    if (!running_.load()) return;

    // Drain the eventfd BEFORE taking the posted list: a post() that
    // lands after the drain writes the eventfd again and wakes the next
    // epoll_wait. Draining after the swap would swallow the wakeup of a
    // post made in between, leaving it until the 250 ms timeout.
    for (int i = 0; i < std::max(n, 0); ++i) {
      if (events[static_cast<std::size_t>(i)].data.u64 == kEventTag) {
        std::uint64_t drained = 0;
        while (::read(worker.event_fd, &drained, sizeof drained) > 0) {
        }
        break;
      }
    }

    // Cross-thread work first: completions re-arm connections before
    // their events are examined.
    std::vector<std::function<void()>> posted;
    {
      const std::lock_guard<std::mutex> lock(worker.post_mutex);
      posted.swap(worker.posted);
    }
    for (auto& fn : posted) fn();

    for (int i = 0; i < std::max(n, 0); ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      if (ev.data.u64 == kListenerTag) {
        accept_ready(worker);
        continue;
      }
      if (ev.data.u64 == kEventTag) continue;  // drained above
      const auto it = worker.conns.find(ev.data.u64);
      if (it == worker.conns.end()) continue;  // closed earlier this batch
      Conn& conn = *it->second;
      if ((ev.events & EPOLLOUT) != 0) {
        flush(worker, conn);
        if (worker.conns.find(ev.data.u64) == worker.conns.end()) continue;
      }
      if ((ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        conn_readable(worker, conn);
      }
    }

    const auto now = std::chrono::steady_clock::now();
    if (now - worker.last_sweep > std::chrono::milliseconds(250)) {
      worker.last_sweep = now;
      sweep_idle(worker);
    }
  }
}

void Reactor::accept_ready(Worker& worker) {
  while (true) {
    const int fd = ::accept4(worker.listener.fd(), nullptr, nullptr,
                             SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;  // transient, per-connection
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK && running_.load() &&
          !draining_.load()) {
        util::log_debug("reactor", "accept failed: ", std::strerror(errno));
      }
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = (static_cast<ConnId>(worker.index) << kWorkerShift) |
               worker.next_seq++;
    conn->last_active = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    worker.conns.emplace(conn->id, std::move(conn));
    worker.open.fetch_add(1);
  }
}

void Reactor::conn_readable(Worker& worker, Conn& conn) {
  char buf[16384];
  bool got_bytes = false;
  while (conn.want_read) {
    if (conn.in.size() >= options_.max_read_buffer) {
      // Backpressure: stop reading until the protocol layer consumes.
      conn.want_read = false;
      update_interest(worker, conn);
      break;
    }
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      conn.last_active = std::chrono::steady_clock::now();
      got_bytes = true;
      continue;
    }
    if (n == 0) {
      conn.peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.peer_closed = true;  // hard error: treat as gone
    break;
  }
  const ConnId id = conn.id;
  if (conn.peer_closed && conn.want_read) {
    // Stop watching for input: EOF would level-trigger EPOLLIN forever
    // while a suspended handler runs.
    conn.want_read = false;
    update_interest(worker, conn);
  }
  if (got_bytes && !conn.suspended) {
    run_data(worker, conn);
    if (worker.conns.find(id) == worker.conns.end()) return;
  }
  if (conn.peer_closed && !conn.suspended && conn.out.empty()) {
    // EOF with no response owed (a half-request is abandoned, like the
    // legacy server's "connection closed" path).
    close_conn(worker, id);
  }
}

void Reactor::run_data(Worker& worker, Conn& conn) {
  const ConnId id = conn.id;
  const Verdict verdict = on_data_(id, conn.in);
  // The callback may queue output via send(), which can close the
  // connection on a write error — re-resolve before mutating.
  const auto it = worker.conns.find(id);
  if (it == worker.conns.end()) return;
  Conn& current = *it->second;
  switch (verdict) {
    case Verdict::kContinue:
      if (!current.want_read && !current.peer_closed &&
          current.in.size() < options_.max_read_buffer) {
        current.want_read = true;  // backpressure released
        update_interest(worker, current);
      }
      break;
    case Verdict::kSuspend:
      if (!current.suspended) {
        current.suspended = true;
        worker.suspended.fetch_add(1);
      }
      break;
    case Verdict::kClose:
      current.close_after_flush = true;
      if (current.out.empty()) close_conn(worker, id);
      break;
  }
}

void Reactor::queue_output(Worker& worker, Conn& conn,
                           std::vector<std::string> parts, bool close_after) {
  for (auto& part : parts) {
    if (part.empty()) continue;
    conn.out_bytes += part.size();
    conn.out.push_back(std::move(part));
  }
  if (close_after) conn.close_after_flush = true;
  if (conn.out_bytes > options_.max_write_buffer) {
    // The peer is not draining responses; shed the slow reader.
    close_conn(worker, conn.id);
    return;
  }
  flush(worker, conn);
}

void Reactor::flush(Worker& worker, Conn& conn) {
  const ConnId id = conn.id;
  while (!conn.out.empty()) {
    iovec iov[kMaxIov];
    int count = 0;
    std::size_t offset = conn.out_front_offset;
    for (auto it = conn.out.begin(); it != conn.out.end() && count < kMaxIov;
         ++it) {
      iov[count].iov_base = it->data() + offset;
      iov[count].iov_len = it->size() - offset;
      offset = 0;
      ++count;
    }
    const ssize_t n = ::writev(conn.fd, iov, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          update_interest(worker, conn);
        }
        return;
      }
      close_conn(worker, id);  // peer gone mid-response
      return;
    }
    std::size_t remaining = static_cast<std::size_t>(n);
    conn.out_bytes -= remaining;
    while (remaining > 0) {
      std::string& front = conn.out.front();
      const std::size_t left = front.size() - conn.out_front_offset;
      if (remaining >= left) {
        remaining -= left;
        conn.out_front_offset = 0;
        conn.out.pop_front();
      } else {
        conn.out_front_offset += remaining;
        remaining = 0;
      }
    }
  }
  if (conn.want_write) {
    conn.want_write = false;
    update_interest(worker, conn);
  }
  if (conn.close_after_flush) close_conn(worker, id);
}

void Reactor::update_interest(Worker& worker, Conn& conn) {
  const std::uint32_t mask = (conn.want_read ? EPOLLIN : 0u) |
                             (conn.want_write ? EPOLLOUT : 0u);
  if (mask == 0) {
    // Fully quiesced (reads paused, nothing to write — e.g. a parked
    // connection under backpressure). Remove the fd entirely: an empty
    // interest mask would still level-trigger EPOLLHUP forever if the
    // peer hangs up while we wait for the handler.
    if (conn.registered) {
      ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
      conn.registered = false;
    }
    return;
  }
  epoll_event ev{};
  ev.events = mask;
  ev.data.u64 = conn.id;
  if (conn.registered) {
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  } else {
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, conn.fd, &ev);
    conn.registered = true;
  }
}

void Reactor::close_conn(Worker& worker, ConnId id) {
  const auto it = worker.conns.find(id);
  if (it == worker.conns.end()) return;
  Conn& conn = *it->second;
  if (conn.suspended) worker.suspended.fetch_sub(1);
  if (conn.registered) {
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  }
  ::close(conn.fd);
  worker.conns.erase(it);
  worker.open.fetch_sub(1);
}

void Reactor::sweep_idle(Worker& worker) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<ConnId> expired;
  for (const auto& [id, conn] : worker.conns) {
    if (!conn->suspended && now - conn->last_active > options_.idle_timeout) {
      expired.push_back(id);
    }
  }
  for (const ConnId id : expired) close_conn(worker, id);
}

}  // namespace bifrost::net
