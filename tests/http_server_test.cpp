// Live server/client integration over loopback sockets: keep-alive,
// chunked decoding, timeouts, pooling, concurrent load, against the
// reactor-backed HttpServer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "http/client.hpp"
#include "http/server.hpp"
#include "net/tcp.hpp"

namespace bifrost::http {
namespace {

using namespace std::chrono_literals;

class HttpServerTest : public testing::Test {
 protected:
  void SetUp() override {
    HttpServer::Options options;
    options.worker_threads = 4;
    server_ = std::make_unique<HttpServer>(
        options, [this](const Request& req) { return handle(req); });
    server_->start();
  }

  Response handle(const Request& req) {
    requests_.fetch_add(1);
    if (req.path() == "/echo") {
      Response res = Response::text(200, req.body);
      if (const auto header = req.headers.get("X-Echo")) {
        res.headers.set("X-Echo", *header);
      }
      return res;
    }
    if (req.path() == "/slow") {
      std::this_thread::sleep_for(50ms);
      return Response::text(200, "slow");
    }
    if (req.path() == "/boom") throw std::runtime_error("handler exploded");
    return Response::not_found();
  }

  std::unique_ptr<HttpServer> server_;
  HttpClient client_;
  std::atomic<int> requests_{0};
};

TEST_F(HttpServerTest, BasicRoundTrip) {
  auto res = client_.post(
      "http://127.0.0.1:" + std::to_string(server_->port()) + "/echo",
      "ping", "text/plain");
  ASSERT_TRUE(res.ok()) << res.error_message();
  EXPECT_EQ(res.value().status, 200);
  EXPECT_EQ(res.value().body, "ping");
}

TEST_F(HttpServerTest, HeadersForwarded) {
  Request req;
  req.method = "POST";
  req.target = "/echo";
  req.headers.set("X-Echo", "copy-me");
  req.body = "x";
  auto res = client_.request(std::move(req), "127.0.0.1", server_->port());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().headers.get("X-Echo"), "copy-me");
}

TEST_F(HttpServerTest, KeepAliveReusesConnection) {
  const std::string url =
      "http://127.0.0.1:" + std::to_string(server_->port()) + "/echo";
  ASSERT_TRUE(client_.post(url, "1", "text/plain").ok());
  EXPECT_EQ(client_.idle_connections(), 1u);
  ASSERT_TRUE(client_.post(url, "2", "text/plain").ok());
  EXPECT_EQ(client_.idle_connections(), 1u);  // same connection reused
}

TEST_F(HttpServerTest, ConnectionCloseHonored) {
  Request req;
  req.method = "GET";
  req.target = "/echo";
  req.headers.set("Connection", "close");
  auto res = client_.request(std::move(req), "127.0.0.1", server_->port());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().headers.get("Connection"), "close");
  EXPECT_EQ(client_.idle_connections(), 0u);
}

TEST_F(HttpServerTest, HandlerExceptionBecomes500) {
  auto res = client_.get("http://127.0.0.1:" +
                         std::to_string(server_->port()) + "/boom");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().status, 500);
  EXPECT_NE(res.value().body.find("handler exploded"), std::string::npos);
}

TEST_F(HttpServerTest, NotFoundStatus) {
  auto res = client_.get("http://127.0.0.1:" +
                         std::to_string(server_->port()) + "/nope");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().status, 404);
}

TEST_F(HttpServerTest, MalformedRequestGets400) {
  auto stream = net::TcpStream::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value().write_all("NOT-HTTP\r\n\r\n"));
  ReadBuffer buf;
  auto res = read_response(stream.value(), buf);
  ASSERT_TRUE(res.ok()) << res.error_message();
  EXPECT_EQ(res.value().status, 400);
}

TEST_F(HttpServerTest, ChunkedResponseDecoded) {
  // Speak raw HTTP from a fake backend: client must decode chunks.
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  std::thread backend([&] {
    auto conn = listener.value().accept();
    if (!conn.ok()) return;
    ReadBuffer buf;
    (void)read_request(conn.value(), buf);
    (void)conn.value().write_all(
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n");
  });
  auto res = client_.get("http://127.0.0.1:" + std::to_string(port) + "/");
  backend.join();
  ASSERT_TRUE(res.ok()) << res.error_message();
  EXPECT_EQ(res.value().body, "Wikipedia");
}

TEST_F(HttpServerTest, EofDelimitedResponseBody) {
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  std::thread backend([&] {
    auto conn = listener.value().accept();
    if (!conn.ok()) return;
    ReadBuffer buf;
    (void)read_request(conn.value(), buf);
    (void)conn.value().write_all("HTTP/1.0 200 OK\r\n\r\nto-the-end");
    conn.value().close();
  });
  auto res = client_.get("http://127.0.0.1:" + std::to_string(port) + "/");
  backend.join();
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().body, "to-the-end");
}

TEST_F(HttpServerTest, ConcurrentClients) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      HttpClient client;
      for (int i = 0; i < kPerThread; ++i) {
        auto res = client.post("http://127.0.0.1:" +
                                   std::to_string(server_->port()) + "/echo",
                               std::to_string(i), "text/plain");
        if (res.ok() && res.value().status == 200) successes.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(successes.load(), kThreads * kPerThread);
  EXPECT_GE(server_->requests_served(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST_F(HttpServerTest, LargeBodyRoundTrip) {
  const std::string big(512 * 1024, 'x');
  auto res = client_.post(
      "http://127.0.0.1:" + std::to_string(server_->port()) + "/echo", big,
      "application/octet-stream");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().body.size(), big.size());
}

TEST_F(HttpServerTest, StaleConnectionRetriedAfterServerRestart) {
  const std::string url =
      "http://127.0.0.1:" + std::to_string(server_->port()) + "/echo";
  ASSERT_TRUE(client_.post(url, "a", "text/plain").ok());
  // New server instance on a fresh port; old pooled connection must not
  // poison requests to the new endpoint.
  auto res = client_.post(url, "b", "text/plain");
  EXPECT_TRUE(res.ok());
}

TEST_F(HttpServerTest, PipelinedRequestsAllServed) {
  auto stream = net::TcpStream::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(stream.ok());
  Request first;
  first.method = "POST";
  first.target = "/echo";
  first.body = "one";
  Request second;
  second.method = "POST";
  second.target = "/echo";
  second.body = "two";
  ASSERT_TRUE(
      stream.value().write_all(first.serialize() + second.serialize()));
  ReadBuffer buf;
  auto r1 = read_response(stream.value(), buf);
  ASSERT_TRUE(r1.ok()) << r1.error_message();
  EXPECT_EQ(r1.value().body, "one");
  auto r2 = read_response(stream.value(), buf);
  ASSERT_TRUE(r2.ok()) << r2.error_message();
  EXPECT_EQ(r2.value().body, "two");
}

TEST_F(HttpServerTest, OversizedHeaderRejected) {
  auto stream = net::TcpStream::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(stream.ok());
  std::string head = "GET /echo HTTP/1.1\r\nX-Big: ";
  head += std::string(kMaxHeaderBytes + 1024, 'x');
  head += "\r\n\r\n";
  ASSERT_TRUE(stream.value().write_all(head));
  ReadBuffer buf;
  auto res = read_response(stream.value(), buf);
  ASSERT_TRUE(res.ok()) << res.error_message();
  EXPECT_EQ(res.value().status, 400);
}

TEST_F(HttpServerTest, TornRequestBoundaries) {
  // Deliver one request in tiny fragments with pauses: head torn inside
  // the request line, inside a header, mid-CRLF-CRLF, and body split.
  auto stream = net::TcpStream::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(stream.ok());
  const std::string wire =
      "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n"
      "torn-body";
  for (std::size_t i = 0; i < wire.size(); i += 3) {
    ASSERT_TRUE(stream.value().write_all(wire.substr(i, 3)));
    std::this_thread::sleep_for(1ms);
  }
  ReadBuffer buf;
  auto res = read_response(stream.value(), buf);
  ASSERT_TRUE(res.ok()) << res.error_message();
  EXPECT_EQ(res.value().body, "torn-body");
}

TEST_F(HttpServerTest, TornChunkedBodyReassembled) {
  auto stream = net::TcpStream::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(stream.ok());
  const std::string wire =
      "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
  for (std::size_t i = 0; i < wire.size(); i += 5) {
    ASSERT_TRUE(stream.value().write_all(wire.substr(i, 5)));
    std::this_thread::sleep_for(1ms);
  }
  ReadBuffer buf;
  auto res = read_response(stream.value(), buf);
  ASSERT_TRUE(res.ok()) << res.error_message();
  EXPECT_EQ(res.value().body, "Wikipedia");
}

TEST(HttpServerIdleTest, IdleConnectionsSwept) {
  HttpServer::Options options;
  options.idle_timeout = 200ms;
  HttpServer server(options,
                    [](const Request&) { return Response::text(200, "ok"); });
  server.start();
  HttpClient client;
  ASSERT_TRUE(client
                  .get("http://127.0.0.1:" + std::to_string(server.port()) +
                       "/x")
                  .ok());
  EXPECT_EQ(server.open_connections(), 1u);
  // The reactor's idle sweep (250 ms tick) closes the idle conn.
  for (int i = 0; i < 40 && server.open_connections() > 0; ++i) {
    std::this_thread::sleep_for(50ms);
  }
  EXPECT_EQ(server.open_connections(), 0u);
  server.stop();
}

TEST(HttpServerIdleTest, IdleTimeoutClosesMidKeepAlive) {
  // A keep-alive connection that served a request and then goes quiet is
  // closed by the server; the raw client observes EOF, not a response.
  HttpServer::Options options;
  options.idle_timeout = 200ms;
  HttpServer server(options,
                    [](const Request&) { return Response::text(200, "ok"); });
  server.start();
  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(stream.ok());
  Request req;
  req.target = "/x";
  ASSERT_TRUE(stream.value().write_all(req.serialize()));
  ReadBuffer buf;
  auto first = read_response(stream.value(), buf);
  ASSERT_TRUE(first.ok()) << first.error_message();
  EXPECT_EQ(first.value().headers.get("Connection"), "keep-alive");
  // Go quiet past the idle deadline; the next read must see EOF.
  auto eof = read_response(stream.value(), buf);
  EXPECT_FALSE(eof.ok());
  server.stop();
}

TEST(HttpClientPool, DeadPooledConnectionDetectedAfterServerRestart) {
  // Warm the pool, kill the server, restart it on the same port: the
  // health check must discard the dead socket (FIN pending) instead of
  // sending a request into it.
  auto server = std::make_unique<HttpServer>(
      HttpServer::Options{},
      [](const Request&) { return Response::text(200, "ok"); });
  server->start();
  const std::uint16_t port = server->port();
  const std::string url = "http://127.0.0.1:" + std::to_string(port) + "/x";
  HttpClient client;
  ASSERT_TRUE(client.get(url).ok());
  EXPECT_EQ(client.idle_connections(), 1u);
  server->stop();
  server.reset();

  HttpServer::Options options;
  options.port = port;
  HttpServer fresh(options,
                   [](const Request&) { return Response::text(200, "ok"); });
  fresh.start();
  auto res = client.get(url);
  ASSERT_TRUE(res.ok()) << res.error_message();
  EXPECT_EQ(res.value().status, 200);
  EXPECT_GE(client.pool_stats().unhealthy, 1u);
  fresh.stop();
}

TEST(HttpClientPool, IdleTtlExpiresPooledConnections) {
  HttpServer server(HttpServer::Options{},
                    [](const Request&) { return Response::text(200, "ok"); });
  server.start();
  HttpClient::Options options;
  options.idle_ttl = 50ms;
  HttpClient client(options);
  const std::string url =
      "http://127.0.0.1:" + std::to_string(server.port()) + "/x";
  ASSERT_TRUE(client.get(url).ok());
  EXPECT_EQ(client.pool_stats().misses, 1u);
  std::this_thread::sleep_for(100ms);
  ASSERT_TRUE(client.get(url).ok());
  const auto stats = client.pool_stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.misses, 2u);  // expired conn not reused
  server.stop();
}

TEST(HttpClientPool, GlobalIdleBoundEvictsIdlest) {
  HttpServer server(HttpServer::Options{},
                    [](const Request&) { return Response::text(200, "ok"); });
  server.start();
  HttpClient::Options options;
  options.max_idle_total = 2;
  HttpClient client(options);
  const std::string url =
      "http://127.0.0.1:" + std::to_string(server.port()) + "/x";
  // Three concurrent requests force three distinct connections; only
  // two may stay pooled.
  std::vector<std::thread> threads;
  threads.reserve(3);
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] { EXPECT_TRUE(client.get(url).ok()); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(client.idle_connections(), 2u);
  server.stop();
}

TEST(HttpClientTest, ConnectFailureIsError) {
  HttpClient client;
  auto res = client.get("http://127.0.0.1:1/unlikely");
  EXPECT_FALSE(res.ok());
}

TEST(TcpListenerTest, CloseUnblocksAccept) {
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    listener.value().close();
  });
  auto stream = listener.value().accept();
  closer.join();
  EXPECT_FALSE(stream.ok());
}

TEST(TcpListenerTest, EphemeralPortAssigned) {
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  EXPECT_GT(listener.value().port(), 0);
}

}  // namespace
}  // namespace bifrost::http
