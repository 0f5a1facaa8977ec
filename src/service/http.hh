/**
 * @file
 * Embedded HTTP/1.1 transport: incremental parser and blocking client.
 *
 * pvar deliberately has no external dependencies, so the study
 * service speaks a strict subset of HTTP/1.1 implemented directly
 * over POSIX sockets. Since the event-loop rewrite the server side is
 * fully incremental: HttpParser consumes bytes as they arrive (the
 * loop feeds it from non-blocking reads) and emits zero or more
 * complete requests per feed, which is what makes keep-alive and
 * pipelining possible. The parser is deliberately unforgiving —
 * duplicate or conflicting Content-Length, oversized request lines,
 * bare CR bytes, and control characters in the head are all hard
 * errors with a specific status code (400/413/431), never
 * best-effort guesses; request smuggling thrives on lenient parsers.
 *
 * The same header provides the blocking client used by the service
 * tests, the check.sh smoke stages, and pvar_loadgen: HttpClient
 * holds one connection open across requests (keep-alive reuse),
 * reads Content-Length-framed responses (the only framing the server
 * emits), and exposes raw send/read hooks so tests can pipeline
 * requests or dribble partial bytes (slow-loris) on purpose.
 */

#ifndef PVAR_SERVICE_HTTP_HH
#define PVAR_SERVICE_HTTP_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pvar
{

/** Parse limits and socket timeouts for one connection. */
struct HttpLimits
{
    /** Maximum size of the request line alone (431 beyond). */
    std::size_t maxRequestLineBytes = 8 * 1024;

    /** Maximum size of the request line + headers (431 beyond). */
    std::size_t maxHeaderBytes = 64 * 1024;

    /** Maximum Content-Length accepted (fleet files are ~KBs). */
    std::size_t maxBodyBytes = 16 * 1024 * 1024;

    /** Socket receive/send timeout for blocking clients, in ms. */
    int ioTimeoutMs = 10000;
};

/** One parsed request. */
struct HttpRequest
{
    std::string method;
    std::string path;
    std::string version;
    /** Header (name, value) pairs; names lower-cased. */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Header value by lower-case name, or empty string. */
    const std::string &header(const std::string &name) const;

    /**
     * Whether the connection should stay open after this request:
     * HTTP/1.1 defaults to keep-alive unless `Connection: close`;
     * HTTP/1.0 defaults to close unless `Connection: keep-alive`.
     */
    bool keepAlive() const;
};

/** One response to serialize (or, client-side, one parsed reply). */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    /**
     * Extra headers (e.g. Retry-After); on responses parsed by the
     * client, every header, names lower-cased.
     */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Header value by lower-case name, or empty string. */
    const std::string &header(const std::string &name) const;
};

/** Canonical reason phrase for the status codes the service emits. */
const char *httpStatusReason(int status);

/**
 * Incremental HTTP/1.1 request parser for one connection.
 *
 * Usage: feed() raw bytes as they arrive, then call next() until it
 * stops returning Ready — each Ready hands out one complete request,
 * so a single feed of pipelined requests yields them all in order.
 * After Error the parser is poisoned (the byte stream can no longer
 * be trusted to resynchronize); the connection must answer
 * errorStatus()/error() and close.
 */
class HttpParser
{
  public:
    enum class Result
    {
        NeedMore, ///< no complete request buffered yet
        Ready,    ///< one request extracted into the out-param
        Error,    ///< malformed stream; see errorStatus()/error()
    };

    explicit HttpParser(const HttpLimits &limits);

    /** Append raw bytes from the socket. */
    void feed(const char *data, std::size_t len);

    /** Extract the next complete request, if any. */
    Result next(HttpRequest &req);

    /** HTTP status for the failure: 400, 413, or 431. */
    int errorStatus() const { return _errorStatus; }

    /** One-line description of the failure. */
    const std::string &error() const { return _error; }

    /** Bytes buffered but not yet consumed (tests). */
    std::size_t buffered() const { return _buf.size(); }

  private:
    HttpLimits _limits;
    std::string _buf;
    int _errorStatus = 0;
    std::string _error;

    Result fail(int status, std::string message);
    Result parseHead(std::size_t head_end, HttpRequest &req,
                     std::size_t &body_len);
};

/**
 * Serialize the head of a response: status line, Content-Type,
 * Content-Length of resp.body, extra headers, and the Connection
 * header matching @p keep_alive. The body is NOT appended.
 */
std::string serializeHttpResponseHead(const HttpResponse &resp,
                                      bool keep_alive);

/**
 * Blocking HTTP client over one persistent connection. Used by the
 * tests, the smoke scripts, and pvar_loadgen; understands keep-alive
 * (the connection is reused until the server closes it or a request
 * is sent with close_after) and Content-Length-framed response
 * bodies.
 */
class HttpClient
{
  public:
    HttpClient(std::string host, int port, HttpLimits limits = {});
    ~HttpClient();

    HttpClient(const HttpClient &) = delete;
    HttpClient &operator=(const HttpClient &) = delete;

    /**
     * Connect (if not already connected). @p bind_host optionally
     * binds the local end to a specific source address — the
     * fair-admission tests use distinct 127.0.0.0/8 addresses to look
     * like distinct clients. Returns false and sets @p error on
     * failure.
     */
    bool connect(std::string &error, const std::string &bind_host = "");

    bool connected() const { return _fd >= 0; }

    /** Close the connection (idempotent). */
    void close();

    /**
     * Close abortively: SO_LINGER 0 makes the kernel send RST instead
     * of FIN, so the server observes a hard mid-stream client abort.
     */
    void abortConnection();

    /**
     * Send one request. Connects on demand. With @p close_after the
     * request carries `Connection: close` and the connection is
     * retired after the response is read.
     */
    bool send(const std::string &method, const std::string &path,
              const std::string &body, bool close_after,
              std::string &error);

    /** Send raw bytes (pipelining and slow-loris tests). */
    bool sendRaw(const std::string &bytes, std::string &error);

    /**
     * Read one complete Content-Length-framed response. Returns false
     * with @p error set on timeout, on any other framing (chunked, or
     * no Content-Length), on a malformed head, or on a connection
     * closed before a full response arrived.
     */
    bool readResponse(HttpResponse &resp, std::string &error);

    /** Requests sent over an already-open connection (reuse count). */
    std::uint64_t reuses() const { return _reuses; }

  private:
    std::string _host;
    int _port;
    HttpLimits _limits;
    int _fd = -1;
    std::string _buf;     ///< bytes read past the previous response
    bool _everConnected = false;

    std::uint64_t _reuses = 0;

    bool fillBuf(std::string &error);
};

/**
 * Blocking one-shot client: connect to host:port, send the request
 * with `Connection: close`, read the response. Fatal on connection
 * failure (tests and smoke scripts want loud errors); parse failures
 * set status 0.
 */
HttpResponse httpRequest(const std::string &host, int port,
                         const std::string &method,
                         const std::string &path,
                         const std::string &body = "",
                         const HttpLimits &limits = {});

} // namespace pvar

#endif // PVAR_SERVICE_HTTP_HH
