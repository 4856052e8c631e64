#include "floor.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "trace.hpp"

namespace perfbench {

namespace {

void no_delay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

std::string header(std::string_view head, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = head.find("\r\n", pos)) != std::string_view::npos) {
    pos += 2;
    const std::size_t colon = head.find(':', pos);
    if (colon == std::string_view::npos) break;
    const std::string_view field = head.substr(pos, colon - pos);
    if (field.size() == name.size() &&
        std::equal(field.begin(), field.end(), name.begin(),
                   [](char a, char b) {
                     return std::tolower(static_cast<unsigned char>(a)) == b;
                   })) {
      std::size_t start = colon + 1;
      while (start < head.size() && head[start] == ' ') ++start;
      const std::size_t end = std::min(head.find("\r\n", start), head.size());
      return std::string(head.substr(start, end - start));
    }
  }
  return {};
}

/// Answers every request on `fd` with a fixed 200 until the peer closes.
void respond(int fd) {
  static const std::string kReply =
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
  std::string buffer;
  char chunk[16384];
  for (;;) {
    const std::size_t head_end = buffer.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      const std::size_t total =
          head_end + 4 +
          static_cast<std::size_t>(std::atoll(
              header(std::string_view(buffer.data(), head_end),
                     "content-length")
                  .c_str()));
      if (buffer.size() >= total) {
        buffer.erase(0, total);
        if (::send(fd, kReply.data(), kReply.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(kReply.size())) {
          return;
        }
        continue;
      }
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

bool Conn::open(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  no_delay(fd_);
  const sockaddr_in addr = loopback(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close();
    return false;
  }
  buffer_.clear();
  return true;
}

void Conn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::optional<Conn::Reply> Conn::round_trip(const std::string& wire) {
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return std::nullopt;
    sent += static_cast<std::size_t>(n);
  }
  std::size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return std::nullopt;
  }
  Reply reply;
  const std::string_view head(buffer_.data(), head_end);
  if (head.size() < 12) return std::nullopt;
  reply.status = std::atoi(std::string(head.substr(9, 3)).c_str());
  const std::size_t length = static_cast<std::size_t>(
      std::atoll(header(head, "content-length").c_str()));
  reply.version = header(head, "x-bifrost-version");
  const std::size_t total = head_end + 4 + length;
  while (buffer_.size() < total) {
    if (!fill()) return std::nullopt;
  }
  buffer_.erase(0, total);
  return reply;
}

bool Conn::fill() {
  char chunk[16384];
  const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

Floor::Floor() {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr = loopback(0);
  socklen_t length = sizeof addr;
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<const sockaddr*>(&addr), length) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &length) !=
          0) {
    if (listener >= 0) ::close(listener);
    throw std::runtime_error("floor: cannot listen on loopback");
  }
  server_fd_ = conn_.open(ntohs(addr.sin_port))
                   ? ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC)
                   : -1;
  ::close(listener);
  if (server_fd_ < 0) throw std::runtime_error("floor: cannot connect");
  no_delay(server_fd_);
  server_ = std::thread(respond, server_fd_);
}

Floor::~Floor() {
  // Closing the client side ends the responder's recv loop.
  conn_.close();
  server_.join();
  ::close(server_fd_);
}

double Floor::p50_us(const std::function<std::string(std::uint64_t)>& wire,
                     std::uint64_t rounds) {
  std::vector<double> rtt;
  rtt.reserve(rounds);
  for (std::uint64_t i = 0; i < rounds; ++i) {
    const std::string request = wire(i);
    const std::int64_t start = now_ns();
    if (!conn_.round_trip(request)) return 0.0;
    rtt.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  return percentile(rtt, 50);
}

}  // namespace perfbench
