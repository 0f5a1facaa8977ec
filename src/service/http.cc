#include "service/http.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "fault/sysfault.hh"
#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace pvar
{

namespace
{

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

void
setIoTimeout(int fd, int timeout_ms)
{
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/** send() the whole buffer; MSG_NOSIGNAL so dead peers don't SIGPIPE. */
bool
sendAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = faultSend(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Finish a connect(2) that EINTR interrupted. POSIX says the attempt
 * proceeds asynchronously, so re-calling connect() would yield
 * EALREADY: instead wait for writability and read the outcome from
 * SO_ERROR. Returns true when connected; otherwise errno holds the
 * failure.
 */
bool
finishInterruptedConnect(int fd, int timeout_ms)
{
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int rc;
    do {
        rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
        errno = ETIMEDOUT;
        return false;
    }
    if (rc < 0)
        return false;
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0)
        return false;
    if (err != 0) {
        errno = err;
        return false;
    }
    return true;
}

/** Every byte of an HTTP head must be printable, HTAB, or CRLF. */
bool
headHasForbiddenByte(const std::string &head, std::string &what)
{
    for (std::size_t i = 0; i < head.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(head[i]);
        if (c == '\r') {
            if (i + 1 >= head.size() || head[i + 1] != '\n') {
                what = "bare CR in request head";
                return true;
            }
            ++i; // skip the LF of this CRLF
            continue;
        }
        if (c == '\n') {
            what = "bare LF in request head";
            return true;
        }
        if (c == '\t')
            continue;
        if (c < 0x20 || c == 0x7f) {
            what = strfmt("control byte 0x%02x in request head", c);
            return true;
        }
    }
    return false;
}

} // namespace

const std::string &
HttpRequest::header(const std::string &name) const
{
    static const std::string empty;
    for (const auto &[k, v] : headers) {
        if (k == name)
            return v;
    }
    return empty;
}

bool
HttpRequest::keepAlive() const
{
    std::string conn = toLower(header("connection"));
    if (version == "HTTP/1.0")
        return conn == "keep-alive";
    return conn != "close";
}

const std::string &
HttpResponse::header(const std::string &name) const
{
    static const std::string empty;
    for (const auto &[k, v] : headers) {
        if (k == name)
            return v;
    }
    return empty;
}

const char *
httpStatusReason(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 408:
        return "Request Timeout";
      case 413:
        return "Payload Too Large";
      case 429:
        return "Too Many Requests";
      case 431:
        return "Request Header Fields Too Large";
      case 500:
        return "Internal Server Error";
      case 503:
        return "Service Unavailable";
      default:
        return "Unknown";
    }
}

// ---------------------------------------------------------------------
// Incremental request parser.
// ---------------------------------------------------------------------

HttpParser::HttpParser(const HttpLimits &limits) : _limits(limits) {}

void
HttpParser::feed(const char *data, std::size_t len)
{
    if (_errorStatus == 0)
        _buf.append(data, len);
}

HttpParser::Result
HttpParser::fail(int status, std::string message)
{
    _errorStatus = status;
    _error = std::move(message);
    _buf.clear();
    return Result::Error;
}

HttpParser::Result
HttpParser::next(HttpRequest &req)
{
    if (_errorStatus != 0)
        return Result::Error;

    std::size_t head_end = _buf.find("\r\n\r\n");
    if (head_end == std::string::npos) {
        // Bound the damage a never-finishing head can do: the request
        // line alone, and the head as a whole, each have a cap.
        std::size_t line_end = _buf.find("\r\n");
        if (line_end == std::string::npos &&
            _buf.size() > _limits.maxRequestLineBytes)
            return fail(431, "request line too long");
        if (_buf.size() > _limits.maxHeaderBytes)
            return fail(431, "request headers too large");
        return Result::NeedMore;
    }

    req = HttpRequest{};
    std::size_t body_len = 0;
    Result head = parseHead(head_end, req, body_len);
    if (head != Result::Ready)
        return head;

    std::size_t body_start = head_end + 4;
    if (_buf.size() - body_start < body_len)
        return Result::NeedMore; // keep the head; wait for the body

    req.body = _buf.substr(body_start, body_len);
    _buf.erase(0, body_start + body_len);
    return Result::Ready;
}

HttpParser::Result
HttpParser::parseHead(std::size_t head_end, HttpRequest &req,
                      std::size_t &body_len)
{
    const std::string head = _buf.substr(0, head_end + 2);
    std::string forbidden;
    if (headHasForbiddenByte(head, forbidden))
        return fail(400, forbidden);

    std::size_t line_end = head.find("\r\n");
    if (line_end > _limits.maxRequestLineBytes)
        return fail(431, "request line too long");
    if (head_end + 2 > _limits.maxHeaderBytes)
        return fail(431, "request headers too large");

    const std::string request_line = head.substr(0, line_end);
    std::size_t sp1 = request_line.find(' ');
    std::size_t sp2 =
        sp1 == std::string::npos ? sp1 : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        sp1 == 0 || sp2 == sp1 + 1 ||
        request_line.find(' ', sp2 + 1) != std::string::npos)
        return fail(400, "malformed request line");
    req.method = request_line.substr(0, sp1);
    req.path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    req.version = request_line.substr(sp2 + 1);
    if (req.version.rfind("HTTP/1.", 0) != 0) {
        return fail(400, strfmt("unsupported protocol '%s'",
                                req.version.c_str()));
    }

    std::size_t pos = line_end + 2;
    while (pos < head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string::npos)
            break;
        std::string line = head.substr(pos, eol - pos);
        pos = eol + 2;
        if (line.empty())
            break;
        std::size_t colon = line.find(':');
        if (colon == std::string::npos || colon == 0)
            return fail(400, "malformed header line");
        std::string name = line.substr(0, colon);
        // A space before the colon is a classic smuggling vector
        // (proxies disagree about which header it was).
        if (name.find(' ') != std::string::npos ||
            name.find('\t') != std::string::npos)
            return fail(400, "whitespace in header name");
        req.headers.emplace_back(toLower(name),
                                 trim(line.substr(colon + 1)));
    }

    // Content-Length: exactly zero or one, and unambiguous. Duplicate
    // or conflicting values are how request smuggling starts, so they
    // are rejected outright rather than "first/last one wins".
    body_len = 0;
    int cl_seen = 0;
    std::string cl_value;
    for (const auto &[k, v] : req.headers) {
        if (k != "content-length")
            continue;
        if (++cl_seen > 1 && v != cl_value)
            return fail(400, "conflicting Content-Length headers");
        cl_value = v;
    }
    if (cl_seen > 1)
        return fail(400, "duplicate Content-Length headers");
    if (cl_seen == 1) {
        if (cl_value.find(',') != std::string::npos)
            return fail(400, "conflicting Content-Length headers");
        long long v = 0;
        if (!parseIntStrict(cl_value, v) || v < 0)
            return fail(400, "bad Content-Length");
        body_len = static_cast<std::size_t>(v);
    }
    if (body_len > _limits.maxBodyBytes)
        return fail(413, "request body too large");
    if (!req.header("transfer-encoding").empty())
        return fail(400, "chunked transfer encoding not supported");
    return Result::Ready;
}

// ---------------------------------------------------------------------
// Response serialization.
// ---------------------------------------------------------------------

std::string
serializeHttpResponseHead(const HttpResponse &resp, bool keep_alive)
{
    std::string out = strfmt("HTTP/1.1 %d %s\r\n", resp.status,
                             httpStatusReason(resp.status));
    out += "Content-Type: " + resp.contentType + "\r\n";
    out += strfmt("Content-Length: %zu\r\n", resp.body.size());
    for (const auto &[k, v] : resp.headers)
        out += k + ": " + v + "\r\n";
    out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                      : "Connection: close\r\n\r\n";
    return out;
}

// ---------------------------------------------------------------------
// Blocking client.
// ---------------------------------------------------------------------

HttpClient::HttpClient(std::string host, int port, HttpLimits limits)
    : _host(std::move(host)), _port(port), _limits(limits)
{
}

HttpClient::~HttpClient()
{
    close();
}

bool
HttpClient::connect(std::string &error, const std::string &bind_host)
{
    if (_fd >= 0)
        return true;
    _buf.clear();
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        error = strfmt("socket: %s", std::strerror(errno));
        return false;
    }
    setIoTimeout(fd, _limits.ioTimeoutMs);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (!bind_host.empty()) {
        sockaddr_in local{};
        local.sin_family = AF_INET;
        local.sin_port = 0;
        if (inet_pton(AF_INET, bind_host.c_str(), &local.sin_addr) != 1 ||
            ::bind(fd, reinterpret_cast<sockaddr *>(&local),
                   sizeof(local)) < 0) {
            error = strfmt("bind %s: %s", bind_host.c_str(),
                           std::strerror(errno));
            ::close(fd);
            return false;
        }
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(_port));
    if (inet_pton(AF_INET, _host.c_str(), &addr.sin_addr) != 1) {
        error = strfmt("bad address '%s'", _host.c_str());
        ::close(fd);
        return false;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0 &&
        (errno != EINTR ||
         !finishInterruptedConnect(fd, _limits.ioTimeoutMs))) {
        error = strfmt("connect %s:%d: %s", _host.c_str(), _port,
                       std::strerror(errno));
        ::close(fd);
        return false;
    }
    _fd = fd;
    if (_everConnected)
        _buf.clear();
    _everConnected = true;
    return true;
}

void
HttpClient::close()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
}

void
HttpClient::abortConnection()
{
    if (_fd < 0)
        return;
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    setsockopt(_fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(_fd);
    _fd = -1;
}

bool
HttpClient::send(const std::string &method, const std::string &path,
                 const std::string &body, bool close_after,
                 std::string &error)
{
    bool fresh = _fd < 0;
    if (!connect(error))
        return false;
    if (!fresh)
        ++_reuses;

    std::string out = method + " " + path + " HTTP/1.1\r\n";
    out += "Host: " + _host + strfmt(":%d", _port) + "\r\n";
    if (!body.empty() || method == "POST") {
        out += "Content-Type: application/json\r\n";
        out += strfmt("Content-Length: %zu\r\n", body.size());
    }
    out += close_after ? "Connection: close\r\n\r\n"
                       : "Connection: keep-alive\r\n\r\n";
    out += body;
    return sendRaw(out, error);
}

bool
HttpClient::sendRaw(const std::string &bytes, std::string &error)
{
    if (!connect(error))
        return false;
    if (!sendAll(_fd, bytes.data(), bytes.size())) {
        error = strfmt("send %s:%d: %s", _host.c_str(), _port,
                       std::strerror(errno));
        close();
        return false;
    }
    return true;
}

bool
HttpClient::fillBuf(std::string &error)
{
    char chunk[4096];
    ssize_t n;
    do {
        n = faultRecv(_fd, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
        error = strfmt("recv: %s", std::strerror(errno));
        return false;
    }
    if (n == 0) {
        error = "connection closed";
        return false;
    }
    _buf.append(chunk, static_cast<std::size_t>(n));
    return true;
}

bool
HttpClient::readResponse(HttpResponse &resp, std::string &error)
{
    if (_fd < 0) {
        error = "not connected";
        return false;
    }

    std::size_t head_end;
    while ((head_end = _buf.find("\r\n\r\n")) == std::string::npos) {
        if (_buf.size() > _limits.maxHeaderBytes) {
            error = "response headers too large";
            close();
            return false;
        }
        if (!fillBuf(error)) {
            close();
            return false;
        }
    }

    resp = HttpResponse{};
    std::size_t line_end = _buf.find("\r\n");
    std::string status_line = _buf.substr(0, line_end);
    std::size_t sp = status_line.find(' ');
    long long code = 0;
    if (sp == std::string::npos ||
        !parseIntStrict(status_line.substr(sp + 1, 3), code)) {
        error = "malformed status line";
        close();
        return false;
    }
    resp.status = static_cast<int>(code);
    std::size_t pos = line_end + 2;
    while (pos < head_end) {
        std::size_t eol = _buf.find("\r\n", pos);
        std::string line = _buf.substr(pos, eol - pos);
        pos = eol + 2;
        std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
            resp.headers.emplace_back(toLower(trim(line.substr(0, colon))),
                                      trim(line.substr(colon + 1)));
        }
    }
    _buf.erase(0, head_end + 4);

    if (!resp.header("transfer-encoding").empty()) {
        error = "unsupported Transfer-Encoding in response";
        close();
        return false;
    }
    const std::string &cl = resp.header("content-length");
    long long want = 0;
    if (cl.empty() || !parseIntStrict(cl, want) || want < 0) {
        error = "missing or bad Content-Length in response";
        close();
        return false;
    }
    while (_buf.size() < static_cast<std::size_t>(want)) {
        if (!fillBuf(error)) {
            close();
            return false;
        }
    }
    resp.body = _buf.substr(0, static_cast<std::size_t>(want));
    _buf.erase(0, static_cast<std::size_t>(want));

    if (toLower(resp.header("connection")) == "close")
        close();
    return true;
}

HttpResponse
httpRequest(const std::string &host, int port,
            const std::string &method, const std::string &path,
            const std::string &body, const HttpLimits &limits)
{
    HttpClient client(host, port, limits);
    std::string error;
    if (!client.connect(error))
        fatal("httpRequest: %s", error.c_str());
    if (!client.send(method, path, body, /*close_after=*/true, error))
        fatal("httpRequest: %s", error.c_str());
    HttpResponse resp;
    if (!client.readResponse(resp, error)) {
        // Parse failures report status 0; the smoke callers assert on
        // the status they expect, so a garbled reply fails loudly.
        resp = HttpResponse{};
        resp.status = 0;
    }
    return resp;
}

} // namespace pvar
