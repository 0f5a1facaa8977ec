/**
 * @file
 * Tests for the async service core beneath StudyService: the
 * incremental HTTP parser and its malformed-request corpus (request
 * smuggling defenses), the hashed timer wheel, the epoll Poller, the
 * HttpServerLoop end to end with synthetic handlers (keep-alive,
 * deferred completions, large bodies resumed across short writes,
 * overload shedding), HttpClient's Content-Length-only framing, and
 * the load generator's latency histogram. scripts/check.sh also
 * builds this binary in the TSan tree.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fault/fault.hh"
#include "service/eventloop.hh"
#include "service/http.hh"
#include "service/loadgen.hh"
#include "sim/logging.hh"

using namespace pvar;

namespace
{

/** Quiet logging for the duration of one test. */
class QuietLog
{
  public:
    QuietLog() : _prev(setLogLevel(LogLevel::Quiet)) {}
    ~QuietLog() { setLogLevel(_prev); }

  private:
    LogLevel _prev;
};

HttpParser::Result
feedAll(HttpParser &parser, const std::string &bytes, HttpRequest &req)
{
    parser.feed(bytes.data(), bytes.size());
    return parser.next(req);
}

} // namespace

// ---------------------------------------------------------------------
// Incremental parser: the happy paths.
// ---------------------------------------------------------------------

TEST(HttpParserTest, ParsesASimpleGet)
{
    HttpParser parser{HttpLimits{}};
    HttpRequest req;
    ASSERT_EQ(feedAll(parser,
                      "GET /devices HTTP/1.1\r\nHost: x\r\n\r\n", req),
              HttpParser::Result::Ready);
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.path, "/devices");
    EXPECT_EQ(req.version, "HTTP/1.1");
    EXPECT_TRUE(req.keepAlive()); // 1.1 defaults to keep-alive
    EXPECT_EQ(parser.buffered(), 0u);
    EXPECT_EQ(parser.next(req), HttpParser::Result::NeedMore);
}

TEST(HttpParserTest, KeepAliveFollowsVersionAndConnectionHeader)
{
    HttpParser parser{HttpLimits{}};
    HttpRequest req;
    ASSERT_EQ(feedAll(parser,
                      "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
                      "GET / HTTP/1.0\r\n\r\n"
                      "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                      req),
              HttpParser::Result::Ready);
    EXPECT_FALSE(req.keepAlive());
    ASSERT_EQ(parser.next(req), HttpParser::Result::Ready);
    EXPECT_FALSE(req.keepAlive()); // 1.0 defaults to close
    ASSERT_EQ(parser.next(req), HttpParser::Result::Ready);
    EXPECT_TRUE(req.keepAlive());
}

TEST(HttpParserTest, PipelinedRequestsComeOutInOrder)
{
    HttpParser parser{HttpLimits{}};
    HttpRequest req;
    ASSERT_EQ(feedAll(parser,
                      "GET /a HTTP/1.1\r\n\r\n"
                      "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
                      "GET /c HTTP/1.1\r\n\r\n",
                      req),
              HttpParser::Result::Ready);
    EXPECT_EQ(req.path, "/a");
    ASSERT_EQ(parser.next(req), HttpParser::Result::Ready);
    EXPECT_EQ(req.path, "/b");
    EXPECT_EQ(req.body, "hi");
    ASSERT_EQ(parser.next(req), HttpParser::Result::Ready);
    EXPECT_EQ(req.path, "/c");
    EXPECT_EQ(parser.next(req), HttpParser::Result::NeedMore);
}

TEST(HttpParserTest, ByteAtATimeDribbleStaysIncremental)
{
    const std::string bytes =
        "POST /study HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
    HttpParser parser{HttpLimits{}};
    HttpRequest req;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        parser.feed(&bytes[i], 1);
        ASSERT_EQ(parser.next(req), HttpParser::Result::NeedMore)
            << "after byte " << i;
    }
    parser.feed(&bytes[bytes.size() - 1], 1);
    ASSERT_EQ(parser.next(req), HttpParser::Result::Ready);
    EXPECT_EQ(req.body, "body");
}

TEST(HttpParserTest, HeaderNamesAreLowerCasedAndValuesTrimmed)
{
    HttpParser parser{HttpLimits{}};
    HttpRequest req;
    ASSERT_EQ(feedAll(parser,
                      "GET / HTTP/1.1\r\nX-Thing:  padded \r\n\r\n",
                      req),
              HttpParser::Result::Ready);
    EXPECT_EQ(req.header("x-thing"), "padded");
}

// ---------------------------------------------------------------------
// The malformed-request corpus: every entry is a hard error with a
// specific status, never a best-effort parse.
// ---------------------------------------------------------------------

namespace
{

struct BadRequest
{
    const char *label;
    std::string bytes;
    int status;
};

std::vector<BadRequest>
badRequestCorpus()
{
    std::string long_line = "GET /";
    long_line.append(9000, 'a');
    long_line += " HTTP/1.1\r\n\r\n";
    return {
        {"duplicate content-length",
         "POST / HTTP/1.1\r\nContent-Length: 2\r\n"
         "Content-Length: 2\r\n\r\nhi",
         400},
        {"conflicting content-length",
         "POST / HTTP/1.1\r\nContent-Length: 2\r\n"
         "Content-Length: 3\r\n\r\nhi",
         400},
        {"comma content-length",
         "POST / HTTP/1.1\r\nContent-Length: 2, 2\r\n\r\nhi", 400},
        {"non-numeric content-length",
         "POST / HTTP/1.1\r\nContent-Length: ab\r\n\r\n", 400},
        {"negative content-length",
         "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
        {"bare CR in header",
         "GET / HTTP/1.1\r\nX: a\rb\r\n\r\n", 400},
        {"control byte in head",
         std::string("GET / HTTP/1.1\r\nX: a\x01") + "b\r\n\r\n", 400},
        {"whitespace in header name",
         "GET / HTTP/1.1\r\nX Y: v\r\n\r\n", 400},
        {"space before colon",
         "GET / HTTP/1.1\r\nHost : v\r\n\r\n", 400},
        {"colon-less header",
         "GET / HTTP/1.1\r\nnocolon\r\n\r\n", 400},
        {"missing version", "GET /\r\n\r\n", 400},
        {"double space request line",
         "GET  / HTTP/1.1\r\n\r\n", 400},
        {"extra token request line",
         "GET / HTTP/1.1 junk\r\n\r\n", 400},
        {"unsupported protocol", "GET / HTTP/2\r\n\r\n", 400},
        {"transfer-encoding request",
         "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         "0\r\n\r\n",
         400},
        {"oversized request line", long_line, 431},
    };
}

} // namespace

TEST(HttpParserCorpus, EveryMalformedRequestIsRejected)
{
    for (const BadRequest &bad : badRequestCorpus()) {
        HttpParser parser{HttpLimits{}};
        HttpRequest req;
        EXPECT_EQ(feedAll(parser, bad.bytes, req),
                  HttpParser::Result::Error)
            << bad.label;
        EXPECT_EQ(parser.errorStatus(), bad.status) << bad.label;
        EXPECT_FALSE(parser.error().empty()) << bad.label;
    }
}

TEST(HttpParserCorpus, DuplicateVsConflictingAreDistinguished)
{
    HttpParser dup{HttpLimits{}};
    HttpRequest req;
    ASSERT_EQ(feedAll(dup,
                      "POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                      "Content-Length: 2\r\n\r\nhi",
                      req),
              HttpParser::Result::Error);
    EXPECT_NE(dup.error().find("duplicate"), std::string::npos)
        << dup.error();

    HttpParser conflict{HttpLimits{}};
    ASSERT_EQ(feedAll(conflict,
                      "POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                      "Content-Length: 3\r\n\r\nhi",
                      req),
              HttpParser::Result::Error);
    EXPECT_NE(conflict.error().find("conflicting"), std::string::npos)
        << conflict.error();
}

TEST(HttpParserCorpus, RequestLineCapAppliesBeforeTheLineCompletes)
{
    // A request line that never ends must not buffer unboundedly.
    HttpLimits limits;
    limits.maxRequestLineBytes = 64;
    HttpParser parser{limits};
    HttpRequest req;
    std::string bytes = "GET /";
    bytes.append(200, 'a'); // no CRLF anywhere
    EXPECT_EQ(feedAll(parser, bytes, req), HttpParser::Result::Error);
    EXPECT_EQ(parser.errorStatus(), 431);
}

TEST(HttpParserCorpus, HeaderCapYields431)
{
    HttpLimits limits;
    limits.maxHeaderBytes = 128;
    HttpParser parser{limits};
    HttpRequest req;
    std::string bytes = "GET / HTTP/1.1\r\n";
    for (int i = 0; i < 20; ++i)
        bytes += "X-Pad: aaaaaaaaaaaaaaaa\r\n";
    bytes += "\r\n";
    EXPECT_EQ(feedAll(parser, bytes, req), HttpParser::Result::Error);
    EXPECT_EQ(parser.errorStatus(), 431);
}

TEST(HttpParserCorpus, BodyCapYields413)
{
    HttpLimits limits;
    limits.maxBodyBytes = 8;
    HttpParser parser{limits};
    HttpRequest req;
    EXPECT_EQ(feedAll(parser,
                      "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n"
                      "123456789",
                      req),
              HttpParser::Result::Error);
    EXPECT_EQ(parser.errorStatus(), 413);
}

TEST(HttpParserCorpus, PoisonedParserStaysPoisoned)
{
    HttpParser parser{HttpLimits{}};
    HttpRequest req;
    ASSERT_EQ(feedAll(parser, "BOGUS\r\n\r\n", req),
              HttpParser::Result::Error);
    // Later valid bytes cannot resurrect the stream.
    EXPECT_EQ(feedAll(parser, "GET / HTTP/1.1\r\n\r\n", req),
              HttpParser::Result::Error);
    EXPECT_EQ(parser.buffered(), 0u);
}

// ---------------------------------------------------------------------
// Timer wheel.
// ---------------------------------------------------------------------

TEST(TimerWheelTest, FiresAtTheDeadlineNotBefore)
{
    TimerWheel wheel(16, 10, 1000);
    wheel.schedule(7, 1050);
    std::vector<std::uint64_t> fired;
    wheel.advance(1049, fired);
    EXPECT_TRUE(fired.empty());
    wheel.advance(1060, fired);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], 7u);
    EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, RescheduleMovesTheDeadline)
{
    TimerWheel wheel(16, 10, 1000);
    wheel.schedule(1, 1050);
    wheel.schedule(1, 2000); // re-arm (every read/write does this)
    std::vector<std::uint64_t> fired;
    wheel.advance(1500, fired);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(wheel.pending(), 1u);
    wheel.advance(2011, fired);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], 1u);
}

TEST(TimerWheelTest, CancelledEntriesNeverFire)
{
    TimerWheel wheel(16, 10, 1000);
    wheel.schedule(1, 1050);
    wheel.schedule(2, 1050);
    wheel.cancel(1);
    std::vector<std::uint64_t> fired;
    wheel.advance(1100, fired);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], 2u);
}

TEST(TimerWheelTest, DeadlinesBeyondOneRotationSurviveTheSweeps)
{
    // 16 slots x 10ms = one rotation per 160ms; a 500ms deadline must
    // ride through several sweeps before firing.
    TimerWheel wheel(16, 10, 1000);
    wheel.schedule(1, 1500);
    std::vector<std::uint64_t> fired;
    for (std::uint64_t t = 1010; t < 1500; t += 37) {
        wheel.advance(t, fired);
        ASSERT_TRUE(fired.empty()) << "fired early at " << t;
    }
    wheel.advance(1510, fired);
    ASSERT_EQ(fired.size(), 1u);
}

TEST(TimerWheelTest, PastDeadlineFiresOnTheNextAdvance)
{
    TimerWheel wheel(16, 10, 1000);
    wheel.schedule(1, 900); // already overdue when armed
    std::vector<std::uint64_t> fired;
    wheel.advance(1020, fired);
    ASSERT_EQ(fired.size(), 1u);
}

// ---------------------------------------------------------------------
// Poller.
// ---------------------------------------------------------------------

TEST(PollerTest, PipeReadinessAndInterestChanges)
{
    Poller poller;

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    poller.add(fds[0], true, false);

    std::vector<Poller::Event> events;
    EXPECT_EQ(poller.wait(events, 0), 0);

    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    ASSERT_GE(poller.wait(events, 1000), 1);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].fd, fds[0]);
    EXPECT_TRUE(events[0].readable);

    // Interest off: the byte is still there, but we asked not to know.
    poller.modify(fds[0], false, false);
    EXPECT_EQ(poller.wait(events, 0), 0);

    poller.modify(fds[0], true, false);
    EXPECT_GE(poller.wait(events, 0), 1);

    poller.remove(fds[0]);
    EXPECT_EQ(poller.wait(events, 0), 0);
    ::close(fds[0]);
    ::close(fds[1]);
}

// ---------------------------------------------------------------------
// The loop end to end, with synthetic handlers.
// ---------------------------------------------------------------------

namespace
{

HttpResponse
jsonError(int status, const std::string &msg)
{
    HttpResponse resp;
    resp.status = status;
    resp.body = "{\"error\": \"" + msg + "\"}\n";
    return resp;
}

/** Loop answering GET <anything> with "echo:<path>" inline. */
HttpLoopConfig
echoConfig()
{
    HttpLoopConfig cfg;
    cfg.port = 0;
    return cfg;
}

} // namespace

TEST(HttpServerLoopTest, KeepAliveServesManyRequestsPerConnection)
{
    QuietLog quiet;
    HttpServerLoop loop(
        echoConfig(),
        [](const HttpRequest &req, const std::string &,
           HttpServerLoop::Token, HttpResponse &out) {
            out.body = "echo:" + req.path;
            return true;
        },
        jsonError);
    loop.start();
    ASSERT_GT(loop.port(), 0);

    HttpClient client("127.0.0.1", loop.port());
    std::string error;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(client.send("GET", "/r" + std::to_string(i), "",
                                false, error))
            << error;
        HttpResponse resp;
        ASSERT_TRUE(client.readResponse(resp, error)) << error;
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, "echo:/r" + std::to_string(i));
    }
    EXPECT_EQ(client.reuses(), 4u);

    loop.requestStop();
    loop.join();
    HttpLoopStats stats = loop.stats();
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.keepAliveReuses, 4u);
    EXPECT_EQ(stats.parseErrors, 0u);
    EXPECT_EQ(stats.aborted, 0u);
}

TEST(HttpServerLoopTest, DeferredCompletionsFlowBackToTheConnection)
{
    QuietLog quiet;
    std::atomic<HttpServerLoop::Token> pending{0};
    HttpServerLoop loop(
        echoConfig(),
        [&](const HttpRequest &, const std::string &,
            HttpServerLoop::Token token, HttpResponse &) {
            pending.store(token);
            return false; // completed later, from another thread
        },
        jsonError);
    loop.start();

    std::thread completer([&] {
        while (pending.load() == 0)
            std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        HttpResponse resp;
        resp.body = "deferred";
        EXPECT_TRUE(loop.complete(pending.load(), std::move(resp)));
    });

    HttpResponse resp =
        httpRequest("127.0.0.1", loop.port(), "GET", "/slow");
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, "deferred");
    completer.join();
}

TEST(HttpServerLoopTest, LargeBodiesResumeShortWritesOverKeepAlive)
{
    QuietLog quiet;
    std::string big(100 * 1024, 'x');
    for (std::size_t i = 0; i < big.size(); i += 97)
        big[i] = static_cast<char>('a' + (i / 97) % 26);

    HttpServerLoop loop(
        echoConfig(),
        [&](const HttpRequest &, const std::string &,
            HttpServerLoop::Token, HttpResponse &out) {
            out.body = big;
            return true;
        },
        jsonError);
    loop.start();

    // Every send(2) moves only a quarter of what it is offered, so each
    // response takes dozens of writes resumed from the saved offset.
    FaultPlan plan(1);
    FaultRule rule;
    rule.site = FaultSite::NetWrite;
    rule.mode = SysFaultMode::Short;
    rule.value = 0.25;
    rule.every = 1;
    plan.addRule(rule);
    installFaultPlan(std::make_shared<FaultPlan>(plan));

    HttpClient client("127.0.0.1", loop.port());
    std::string error;
    for (const char *path : {"/big", "/again"}) {
        HttpResponse resp;
        bool ok = client.send("GET", path, "", false, error) &&
                  client.readResponse(resp, error);
        EXPECT_TRUE(ok) << path << ": " << error;
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.header("content-length"),
                  std::to_string(big.size()));
        EXPECT_EQ(resp.header("transfer-encoding"), "");
        EXPECT_TRUE(resp.body == big) << path << ": body differs";
    }
    clearFaultPlan();

    loop.requestStop();
    loop.join();
    EXPECT_EQ(loop.stats().accepted, 1u);
    EXPECT_EQ(loop.stats().keepAliveReuses, 1u);
    EXPECT_EQ(loop.stats().aborted, 0u);
}

TEST(HttpServerLoopTest, MaxConnsShedsWith503)
{
    QuietLog quiet;
    HttpLoopConfig cfg = echoConfig();
    cfg.maxConns = 1;
    HttpServerLoop loop(
        cfg,
        [](const HttpRequest &, const std::string &,
           HttpServerLoop::Token, HttpResponse &out) {
            out.body = "ok";
            return true;
        },
        jsonError);
    loop.start();

    // Fill the one slot (a full round trip guarantees registration).
    HttpClient holder("127.0.0.1", loop.port());
    std::string error;
    ASSERT_TRUE(holder.send("GET", "/hold", "", false, error)) << error;
    HttpResponse resp;
    ASSERT_TRUE(holder.readResponse(resp, error)) << error;

    HttpResponse shed =
        httpRequest("127.0.0.1", loop.port(), "GET", "/x");
    EXPECT_EQ(shed.status, 503);
    EXPECT_EQ(shed.header("retry-after"), "1");
    EXPECT_GE(loop.stats().overloadClosed, 1u);
}

TEST(HttpServerLoopTest, EmfileAcceptShedsViaReserveFd)
{
    QuietLog quiet;
    HttpServerLoop loop(
        echoConfig(),
        [](const HttpRequest &, const std::string &,
           HttpServerLoop::Token, HttpResponse &out) {
            out.body = "ok";
            return true;
        },
        jsonError);
    loop.start();

    // Count 0 is the accept below; every later accept(2) reports
    // EMFILE. The loop must fall back to its reserve fd: close it,
    // accept the pending connection anyway, answer 503, re-arm.
    {
        FaultPlan plan(1);
        FaultRule rule;
        rule.site = FaultSite::NetAccept;
        rule.mode = SysFaultMode::Emfile;
        rule.after = 1;
        rule.every = 1;
        plan.addRule(rule);
        installFaultPlan(std::make_shared<FaultPlan>(plan));
    }

    HttpResponse first =
        httpRequest("127.0.0.1", loop.port(), "GET", "/a");
    EXPECT_EQ(first.status, 200);

    HttpResponse shed =
        httpRequest("127.0.0.1", loop.port(), "GET", "/b");
    EXPECT_EQ(shed.status, 503);
    EXPECT_EQ(shed.header("retry-after"), "1");
    EXPECT_GE(loop.stats().fdExhaustedSheds, 1u);

    // fd pressure gone: the same loop accepts normally again.
    clearFaultPlan();
    HttpResponse after =
        httpRequest("127.0.0.1", loop.port(), "GET", "/c");
    EXPECT_EQ(after.status, 200);
}

TEST(HttpServerLoopTest, ParseErrorsAnswerAndClose)
{
    QuietLog quiet;
    HttpServerLoop loop(
        echoConfig(),
        [](const HttpRequest &, const std::string &,
           HttpServerLoop::Token, HttpResponse &out) {
            out.body = "ok";
            return true;
        },
        jsonError);
    loop.start();

    HttpClient client("127.0.0.1", loop.port());
    std::string error;
    ASSERT_TRUE(client.sendRaw("BOGUS\r\n\r\n", error)) << error;
    HttpResponse resp;
    ASSERT_TRUE(client.readResponse(resp, error)) << error;
    EXPECT_EQ(resp.status, 400);
    EXPECT_EQ(resp.header("connection"), "close");
    EXPECT_EQ(loop.stats().parseErrors, 1u);
}

// ---------------------------------------------------------------------
// HttpClient framing: Content-Length or nothing.
// ---------------------------------------------------------------------

namespace
{

/**
 * Serve @p reply verbatim from a raw socket to one HttpClient request,
 * then close; returns what readResponse() made of it.
 */
bool
readRawReply(const std::string &reply, std::string &error)
{
    int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr), len), 0);
    EXPECT_EQ(::listen(lfd, 1), 0);
    EXPECT_EQ(
        ::getsockname(lfd, reinterpret_cast<sockaddr *>(&addr), &len), 0);

    std::thread peer([&] {
        int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0)
            return;
        std::string head;
        char buf[1024];
        while (head.find("\r\n\r\n") == std::string::npos) {
            ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0)
                break;
            head.append(buf, static_cast<std::size_t>(n));
        }
        [[maybe_unused]] ssize_t sent =
            ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        ::close(fd);
    });

    HttpClient client("127.0.0.1", ntohs(addr.sin_port));
    HttpResponse resp;
    bool ok = client.send("GET", "/", "", false, error) &&
              client.readResponse(resp, error);
    peer.join();
    ::close(lfd);
    return ok;
}

} // namespace

TEST(HttpClientTest, RejectsAnyFramingButContentLength)
{
    std::string error;
    EXPECT_FALSE(readRawReply("HTTP/1.1 200 OK\r\n"
                              "Transfer-Encoding: chunked\r\n\r\n"
                              "2\r\nok\r\n0\r\n\r\n",
                              error));
    EXPECT_FALSE(error.empty()) << "chunked reply";

    error.clear();
    EXPECT_FALSE(readRawReply("HTTP/1.1 200 OK\r\n"
                              "Connection: close\r\n\r\nok",
                              error));
    EXPECT_FALSE(error.empty()) << "reply without Content-Length";

    // The same peer with Content-Length framing is read normally.
    EXPECT_TRUE(readRawReply("HTTP/1.1 200 OK\r\n"
                             "Content-Length: 2\r\n\r\nok",
                             error))
        << error;
}

// ---------------------------------------------------------------------
// Latency histogram (pvar_loadgen's measurement core).
// ---------------------------------------------------------------------

TEST(LatencyHistogramTest, SmallValuesAreExact)
{
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 50; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 50u);
    EXPECT_EQ(h.percentileUs(50.0), 25u);
    EXPECT_EQ(h.percentileUs(100.0), 50u);
    EXPECT_EQ(h.maxUs(), 50u);
    EXPECT_DOUBLE_EQ(h.meanUs(), 25.5);
}

TEST(LatencyHistogramTest, LargeValuesResolveWithinAFewPercent)
{
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 100000; ++v)
        h.record(v);
    for (double p : {50.0, 90.0, 95.0, 99.0}) {
        double expect = p / 100.0 * 100000.0;
        double got = static_cast<double>(h.percentileUs(p));
        EXPECT_NEAR(got, expect, expect * 0.04) << "p" << p;
    }
}

TEST(LatencyHistogramTest, MergeIsElementWise)
{
    LatencyHistogram a, b;
    a.record(10);
    a.record(1000);
    b.record(10);
    b.record(2000000);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.maxUs(), 2000000u);
    EXPECT_EQ(a.percentileUs(50.0), 10u);
}

TEST(LatencyHistogramTest, EmptyIsAllZeros)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentileUs(99.0), 0u);
    EXPECT_DOUBLE_EQ(h.meanUs(), 0.0);
}
