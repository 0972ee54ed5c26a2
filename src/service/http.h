// Dependency-free HTTP/1.1 server over blocking POSIX sockets.
//
// The daemon serves sustained closed-loop load from CI and operator
// tooling, so the transport speaks persistent HTTP/1.1: a fixed pool of
// connection workers each accept() on the listener themselves and run a
// per-connection request loop (request line, headers, Content-Length
// body -> router handler -> response) until the client sends
// "Connection: close", the idle timeout expires between requests, the
// per-connection request cap is reached, or the server is stopping.
// Connections that arrive while every worker is busy wait in the
// kernel's listen backlog (Options::backlog). No TLS, no chunked
// encoding — every feature left out is a feature that cannot break a
// production tester at 3 a.m.
//
// The head is parsed before the body is read, so the body length is the
// value of the Content-Length header. Every error response the server
// generates itself carries the error document routed errors carry
// ({"kind":"error","schema_version":N,"failure":{...}}).
//
// Robustness contract:
//   * Malformed request line / headers, or a Content-Length that is not
//     plain decimal digits                -> 400, structured JSON body,
//     connection closed (a client this confused gets a fresh start).
//   * Body larger than Options::max_body  -> 413, connection closed.
//   * Handler throwing                    -> 500 (the worker survives).
//   * Slow/stalled peers                  -> per-connection SO_RCVTIMEO /
//     SO_SNDTIMEO; a timed-out read mid-request drops the connection.
//   * Idle keep-alive peers               -> closed after idle_timeout_s
//     waiting for the next request (silently: nothing to answer).
//   * accept() failing (out of descriptors, a peer that reset first)
//                                         -> the worker accepts again,
//     after a short back-off; only stop() ends accepting.
//   * stop()                              -> active connections get a
//     read-side shutdown, so in-flight responses still flush but no
//     further requests are read.
//
// Binding port 0 picks an ephemeral port (port() reports the real one)
// — the loopback tests and the CI smoke/load jobs depend on that.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace msbist::service {

struct HttpRequest {
  std::string method;   ///< "GET", "POST", ... (uppercase as received)
  std::string target;   ///< path only, query string stripped into `query`
  std::string query;    ///< raw query string ("" when absent)
  std::string version;  ///< "HTTP/1.1" as received
  std::map<std::string, std::string> headers;  ///< keys lowercased
  std::string body;
  /// 1-based index of this request on its connection: 1 for the first
  /// request, >1 when the connection was reused (keep-alive). The
  /// metrics layer derives connection-reuse counters from this.
  std::size_t serial = 1;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  /// Extra response headers (e.g. "Retry-After" on a 429). Keys are
  /// emitted as given; on client-parsed responses keys are lowercased.
  std::map<std::string, std::string> headers;
  std::string body;

  static HttpResponse json(int status, std::string body) {
    HttpResponse r;
    r.status = status;
    r.body = std::move(body);
    return r;
  }
};

/// The router: every successfully parsed request goes through here.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;       ///< 0 = ephemeral, see port()
    std::size_t io_threads = 4;   ///< connection workers
    std::size_t max_body = 8u << 20;
    int backlog = 64;
    double io_timeout_s = 30.0;   ///< per-connection read/write timeout
    /// How long an idle kept-alive connection may wait for its next
    /// request before the server closes it.
    double idle_timeout_s = 5.0;
    /// Requests served on one connection before the server answers
    /// "Connection: close" and recycles it (bounds per-connection
    /// resource pinning). 0 = unlimited.
    std::size_t max_requests_per_connection = 1000;
    /// Observes responses the server generates *below* the handler
    /// (unreadable request -> 400, oversized body -> 413): without this
    /// hook those never reach the metrics-wrapping handler and the
    /// latency histograms under-report exactly under abusive load.
    /// Called from connection workers; must be thread-safe.
    std::function<void(int status, double seconds)> observe_internal_response;
  };

  /// Binds and listens immediately (throws std::runtime_error on
  /// failure: port in use, bad address), then starts the workers.
  HttpServer(Options options, HttpHandler handler);
  ~HttpServer();  ///< stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The actually bound port (resolves an ephemeral bind).
  std::uint16_t port() const { return port_; }

  /// Close the listener and join every worker. In-flight responses
  /// finish (active connections are shut down read-side only);
  /// connections still in the listen backlog are reset. Idempotent.
  void stop();

 private:
  void worker_loop();
  void serve_connection(int fd);
  bool stopping() const;

  Options options_;
  HttpHandler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::thread> workers_;

  struct Connections;
  std::unique_ptr<Connections> conns_;
};

/// Reason-phrase for the status codes the service emits.
const char* status_text(int status);

/// Persistent-connection loopback HTTP client for tests and load
/// tooling. One instance owns (at most) one socket to 127.0.0.1:port
/// and reuses it across request() calls; when the server closed the
/// connection in the meantime (idle timeout, per-connection request
/// cap) the client transparently reconnects and retries once. Not
/// thread-safe: use one client per worker thread.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port, double io_timeout_s = 60.0);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One request/response exchange. `close_connection` sends
  /// "Connection: close" and drops the socket afterwards. Throws
  /// std::runtime_error on connect/IO failure (after the one stale-
  /// connection retry).
  HttpResponse request(const std::string& method, const std::string& target,
                       const std::string& body = "",
                       bool close_connection = false);

  void close();

  /// Sockets opened / requests completed since construction: the
  /// connection-reuse ratio is 1 - connects/requests.
  std::uint64_t connects() const { return connects_; }
  std::uint64_t requests() const { return requests_; }

 private:
  void ensure_connected();
  HttpResponse exchange(const std::string& wire);

  std::uint16_t port_;
  double io_timeout_s_;
  int fd_ = -1;
  std::uint64_t connects_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t on_this_connection_ = 0;
  std::string buf_;  ///< unread bytes from the current connection
};

}  // namespace msbist::service
