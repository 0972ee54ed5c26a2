#include "service/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string_view>

#include "core/error.h"
#include "core/job.h"
#include "core/json.h"

namespace msbist::service {

namespace {

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

void set_recv_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void set_io_timeout(int fd, double seconds) {
  set_recv_timeout(fd, seconds);
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Write the whole buffer, riding out EINTR and short writes.
bool write_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) --e;
  return s.substr(b, e - b);
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Parse the "Name: value" lines of a message head from `pos` to its end
/// into `headers` (keys lowercased, values trimmed). The server's request
/// heads and the client's response heads share this parser. Returns
/// false on a line without a colon.
bool parse_header_lines(const std::string& head, std::size_t pos,
                        std::map<std::string, std::string>& headers) {
  while (pos < head.size()) {
    std::size_t next = head.find("\r\n", pos);
    if (next == std::string::npos) next = head.size();
    const std::string line = head.substr(pos, next - pos);
    pos = next + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) return false;
    headers[lower(trim(line.substr(0, colon)))] = trim(line.substr(colon + 1));
  }
  return true;
}

/// The body length parsed headers announce: 0 without a Content-Length
/// header. Returns false when its value is not plain decimal digits (RFC
/// 9112 section 6.3) or does not fit.
bool content_length_of(const std::map<std::string, std::string>& headers,
                       std::size_t& length) {
  length = 0;
  const auto it = headers.find("content-length");
  if (it == headers.end()) return true;
  const std::string& text = it->second;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, length);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

struct HttpServer::Connections {
  std::mutex mu;
  /// Connections currently inside serve_connection: stop() shuts their
  /// read side down so idle keep-alive waits end immediately.
  std::vector<int> active;
  bool stop = false;
};

HttpServer::HttpServer(Options options, HttpHandler handler)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      conns_(new Connections) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("http: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close_fd(listen_fd_);
    throw std::runtime_error("http: bad bind address " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(listen_fd_);
    throw std::runtime_error("http: bind(" + options_.bind_address + ":" +
                             std::to_string(options_.port) + ") failed: " + err);
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(listen_fd_);
    throw std::runtime_error("http: listen() failed: " + err);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  const std::size_t workers = std::max<std::size_t>(1, options_.io_threads);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  {
    std::lock_guard<std::mutex> lock(conns_->mu);
    if (conns_->stop) return;
    conns_->stop = true;
    // Read-side shutdown only: a worker blocked waiting for the next
    // keep-alive request wakes with EOF and exits its connection loop,
    // while an in-flight response still flushes.
    for (int fd : conns_->active) ::shutdown(fd, SHUT_RD);
  }
  // Unblock accept(): shutdown makes every blocked accept return on Linux
  // (EINVAL), and a not-yet-blocked accept fails the same way. Only close
  // the fd after the workers have joined — they still read listen_fd_,
  // and closing early could hand a reused fd number to an in-flight
  // accept(). Connections still in the listen backlog are reset.
  ::shutdown(listen_fd_, SHUT_RDWR);
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  close_fd(listen_fd_);
  listen_fd_ = -1;
}

bool HttpServer::stopping() const {
  std::lock_guard<std::mutex> lock(conns_->mu);
  return conns_->stop;
}

void HttpServer::worker_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0) {
      serve_connection(fd);
      continue;
    }
    const int err = errno;
    if (stopping()) return;
    // Any other failure leaves the listener usable: out of descriptors
    // (EMFILE, ENFILE) or memory, or a peer that reset before it was
    // accepted. Accept again; back off first unless the failure was a
    // one-off that a retry clears.
    if (err != EINTR && err != ECONNABORTED) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

namespace {

enum class ReadOutcome {
  kRequest,  ///< a complete head+body was read and parsed
  kClosed,   ///< peer gone / idle timeout before any byte: nothing to answer
  kError,    ///< unreadable, malformed or oversized: answer, then close
};

/// What the server answers a request it cannot hand to the router.
struct ReadError {
  int status = 0;
  std::string detail;
};

/// Parse the request line and headers of `head` into `req`.
bool parse_head(const std::string& head, HttpRequest& req) {
  const std::size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);

  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  req.method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  req.version = request_line.substr(sp2 + 1);
  if (req.method.empty() || target.empty() || target[0] != '/') return false;
  if (req.version.rfind("HTTP/1.", 0) != 0) return false;

  const std::size_t qpos = target.find('?');
  if (qpos != std::string::npos) {
    req.query = target.substr(qpos + 1);
    target.resize(qpos);
  }
  req.target = std::move(target);
  return parse_header_lines(
      head, line_end == std::string::npos ? head.size() : line_end + 2,
      req.headers);
}

/// Read one request off a (possibly reused) connection into `req`. The
/// head is parsed before the body is read, so the body length comes from
/// the Content-Length header itself. `buf` carries bytes left over from
/// the previous request on this connection (pipelined clients) and is
/// left holding any bytes past this request's body. The first read of a
/// reused connection waits idle_timeout_s for the client to come back;
/// every later read uses the io timeout.
ReadOutcome read_request(int fd, const HttpServer::Options& options,
                         bool first_request, std::string& buf,
                         HttpRequest& req, ReadError& error) {
  char chunk[4096];
  std::size_t header_end = buf.find("\r\n\r\n");
  // A request head larger than 64 KiB is nobody's legitimate job
  // submission.
  constexpr std::size_t kMaxHead = 64u * 1024;
  bool waiting_for_first_byte = buf.empty();
  if (!first_request && waiting_for_first_byte) {
    set_recv_timeout(fd, options.idle_timeout_s > 0.0 ? options.idle_timeout_s
                                                      : options.io_timeout_s);
  }
  while (header_end == std::string::npos) {
    if (buf.size() > kMaxHead) {
      error = {400, "unreadable request"};
      return ReadOutcome::kError;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // EOF or timeout before the request started: a clean keep-alive
      // close. Mid-head it is either a vanished peer (nothing to
      // answer) or a stalled one (answer 400, then close).
      if (waiting_for_first_byte || n == 0) return ReadOutcome::kClosed;
      error = {400, "unreadable request"};
      return ReadOutcome::kError;
    }
    if (waiting_for_first_byte) {
      waiting_for_first_byte = false;
      if (!first_request) set_recv_timeout(fd, options.io_timeout_s);
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    header_end = buf.find("\r\n\r\n");
  }
  if (!parse_head(buf.substr(0, header_end), req)) {
    error = {400, "malformed request line"};
    return ReadOutcome::kError;
  }
  std::size_t content_length = 0;
  if (!content_length_of(req.headers, content_length)) {
    error = {400, "invalid Content-Length"};
    return ReadOutcome::kError;
  }
  if (content_length > options.max_body) {
    error = {413, "unreadable request"};
    return ReadOutcome::kError;
  }
  const std::size_t body_start = header_end + 4;
  while (buf.size() - body_start < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return ReadOutcome::kClosed;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  req.body = buf.substr(body_start, content_length);
  buf.erase(0, body_start + content_length);
  return ReadOutcome::kRequest;
}

std::string render_response(const HttpResponse& resp, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    status_text(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  for (const auto& [key, value] : resp.headers) {
    out += key + ": " + value + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n\r\n" : "Connection: close\r\n\r\n";
  out += resp.body;
  return out;
}

/// A response the server generates itself (unreadable request, body too
/// large, handler throwing), in the error document every routed error
/// carries, so clients parse one error schema everywhere.
HttpResponse error_response(int status, std::string detail) {
  core::Failure failure;
  failure.code =
      status == 500 ? core::ErrorCode::kInternal : core::ErrorCode::kBadInput;
  failure.analysis = "http";
  failure.detail = std::move(detail);
  core::JsonWriter w;
  w.begin_object();
  core::write_report_envelope(w, "error");
  w.key("failure");
  failure.to_json(w);
  w.end_object();
  return HttpResponse::json(status, w.str());
}

/// "Connection: close" / "keep-alive" token test (the value may be a
/// comma list; a plain substring scan is enough for the tokens we care
/// about).
bool connection_has_token(const HttpRequest& req, const char* token) {
  const auto it = req.headers.find("connection");
  if (it == req.headers.end()) return false;
  return lower(it->second).find(token) != std::string::npos;
}

}  // namespace

void HttpServer::serve_connection(int fd) {
  set_io_timeout(fd, options_.io_timeout_s);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  {
    std::lock_guard<std::mutex> lock(conns_->mu);
    conns_->active.push_back(fd);
    // stop() may already have swept the active list: make sure this
    // connection cannot sit in an idle read afterwards.
    if (conns_->stop) ::shutdown(fd, SHUT_RD);
  }

  std::string buf;
  std::size_t served = 0;
  bool open = true;
  while (open) {
    HttpRequest req;
    ReadError error;
    const ReadOutcome outcome = read_request(
        fd, options_, /*first_request=*/served == 0, buf, req, error);
    if (outcome == ReadOutcome::kClosed) break;
    const double start = steady_seconds();
    if (outcome == ReadOutcome::kError) {
      write_all(fd, render_response(
                        error_response(error.status, std::move(error.detail)),
                        /*keep_alive=*/false));
      if (options_.observe_internal_response) {
        options_.observe_internal_response(error.status,
                                           steady_seconds() - start);
      }
      break;
    }

    ++served;
    req.serial = served;
    HttpResponse resp;
    try {
      resp = handler_(req);
    } catch (const std::exception& e) {
      resp = error_response(500, e.what());
    } catch (...) {
      resp = error_response(500, "unknown handler error");
    }
    bool keep = !stopping() && !connection_has_token(req, "close") &&
                (options_.max_requests_per_connection == 0 ||
                 served < options_.max_requests_per_connection);
    // HTTP/1.0 defaults to close; honor an explicit keep-alive ask.
    if (req.version == "HTTP/1.0" && !connection_has_token(req, "keep-alive")) {
      keep = false;
    }
    if (!write_all(fd, render_response(resp, keep))) break;
    open = keep;
  }

  {
    std::lock_guard<std::mutex> lock(conns_->mu);
    auto it = std::find(conns_->active.begin(), conns_->active.end(), fd);
    if (it != conns_->active.end()) conns_->active.erase(it);
  }
  close_fd(fd);
}

// --- Client ----------------------------------------------------------

namespace {

/// Thrown by HttpClient::exchange when the reused connection turned out
/// to be dead before any response byte arrived — the one case where a
/// transparent retry on a fresh connection is safe (the server cannot
/// have processed the request and replied).
struct StaleConnection : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace

HttpClient::HttpClient(std::uint16_t port, double io_timeout_s)
    : port_(port), io_timeout_s_(io_timeout_s) {}

HttpClient::~HttpClient() { close(); }

void HttpClient::close() {
  close_fd(fd_);
  fd_ = -1;
  on_this_connection_ = 0;
  buf_.clear();
}

void HttpClient::ensure_connected() {
  if (fd_ >= 0) return;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("http client: socket() failed");
  set_io_timeout(fd_, io_timeout_s_);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    close();
    throw std::runtime_error("http client: connect(127.0.0.1:" +
                             std::to_string(port_) + ") failed: " + err);
  }
  ++connects_;
  on_this_connection_ = 0;
  buf_.clear();
}

HttpResponse HttpClient::exchange(const std::string& wire) {
  if (!write_all(fd_, wire)) {
    if (on_this_connection_ > 0) {
      throw StaleConnection("http client: send on stale connection");
    }
    throw std::runtime_error("http client: send failed");
  }

  char chunk[4096];
  std::size_t header_end = buf_.find("\r\n\r\n");
  bool got_any = !buf_.empty();
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (!got_any && on_this_connection_ > 0) {
        throw StaleConnection("http client: EOF on stale connection");
      }
      throw std::runtime_error("http client: truncated response");
    }
    got_any = true;
    buf_.append(chunk, static_cast<std::size_t>(n));
    header_end = buf_.find("\r\n\r\n");
  }

  const std::string head = buf_.substr(0, header_end);
  if (head.rfind("HTTP/1.", 0) != 0 || head.size() < 12) {
    throw std::runtime_error("http client: malformed response");
  }
  HttpResponse resp;
  resp.status = std::atoi(head.c_str() + 9);
  const std::size_t status_end = head.find("\r\n");
  std::size_t content_length = 0;
  if (!parse_header_lines(
          head, status_end == std::string::npos ? head.size() : status_end + 2,
          resp.headers) ||
      !content_length_of(resp.headers, content_length)) {
    throw std::runtime_error("http client: malformed response");
  }
  if (const auto it = resp.headers.find("content-type");
      it != resp.headers.end()) {
    resp.content_type = it->second;
  }
  const std::size_t body_start = header_end + 4;
  while (buf_.size() - body_start < content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("http client: truncated body");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  resp.body = buf_.substr(body_start, content_length);
  buf_.erase(0, body_start + content_length);
  return resp;
}

HttpResponse HttpClient::request(const std::string& method,
                                 const std::string& target,
                                 const std::string& body,
                                 bool close_connection) {
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "Host: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST" || method == "PUT") {
    wire += "Content-Type: application/json\r\n";
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  wire += close_connection ? "Connection: close\r\n\r\n"
                           : "Connection: keep-alive\r\n\r\n";
  wire += body;

  ensure_connected();
  HttpResponse resp;
  try {
    resp = exchange(wire);
  } catch (const StaleConnection&) {
    // The server recycled the idle connection (idle timeout, request
    // cap) before our request: safe to retry exactly once on a fresh
    // socket.
    close();
    ensure_connected();
    resp = exchange(wire);
  } catch (...) {
    close();
    throw;
  }
  ++requests_;
  ++on_this_connection_;

  bool server_close = false;
  if (const auto it = resp.headers.find("connection");
      it != resp.headers.end()) {
    server_close = lower(it->second).find("close") != std::string::npos;
  }
  if (close_connection || server_close) close();
  return resp;
}

}  // namespace msbist::service
