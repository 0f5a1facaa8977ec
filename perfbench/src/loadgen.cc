#include "loadgen.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util.hh"

namespace perfbench
{

namespace
{

struct Pending
{
    std::size_t index;       ///< into the plan
    Clock::time_point due;
};

/** Outstanding responses are given up this long after the last send. */
constexpr double kGraceS = 10.0;

struct Conn
{
    int fd = -1;
    std::string out;
    std::size_t outOff = 0;
    std::string in;
    std::deque<Pending> pending;
};

int
connectLoopback(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

std::string
wireBytes(const PlannedRequest &r)
{
    std::string w = r.method + " " + r.path +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (r.method == "POST") {
        w += "Content-Type: application/json\r\nContent-Length: " +
             std::to_string(r.body.size()) + "\r\n";
    }
    w += "\r\n";
    w += r.body;
    return w;
}

std::string
lower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

enum class Parse
{
    NeedMore,
    Done,
    Bad,
};

/**
 * Take one complete response off the front of @p buf: status line,
 * headers, then a Content-Length or chunked body.
 */
Parse
takeResponse(std::string &buf, int &status, std::string &body,
             bool &close_after)
{
    std::size_t head_end = buf.find("\r\n\r\n");
    if (head_end == std::string::npos)
        return Parse::NeedMore;
    if (buf.compare(0, 9, "HTTP/1.1 ") != 0 &&
        buf.compare(0, 9, "HTTP/1.0 ") != 0)
        return Parse::Bad;
    status = std::atoi(buf.c_str() + 9);

    long long content_length = -1;
    bool chunked = false;
    close_after = false;
    std::size_t line = buf.find("\r\n") + 2;
    while (line < head_end) {
        std::size_t eol = buf.find("\r\n", line);
        std::size_t colon = buf.find(':', line);
        if (colon != std::string::npos && colon < eol) {
            std::string name = lower(buf.substr(line, colon - line));
            std::size_t v = buf.find_first_not_of(' ', colon + 1);
            std::string value = lower(buf.substr(v, eol - v));
            if (name == "content-length")
                content_length = std::atoll(value.c_str());
            else if (name == "transfer-encoding")
                chunked = value.find("chunked") != std::string::npos;
            else if (name == "connection")
                close_after = value.find("close") != std::string::npos;
        }
        line = eol + 2;
    }

    std::size_t pos = head_end + 4;
    if (!chunked) {
        std::size_t n = content_length < 0
                            ? 0
                            : static_cast<std::size_t>(content_length);
        if (buf.size() < pos + n)
            return Parse::NeedMore;
        body.assign(buf, pos, n);
        buf.erase(0, pos + n);
        return Parse::Done;
    }
    body.clear();
    for (;;) {
        std::size_t eol = buf.find("\r\n", pos);
        if (eol == std::string::npos)
            return Parse::NeedMore;
        std::size_t size = std::strtoull(buf.c_str() + pos, nullptr, 16);
        pos = eol + 2;
        if (size == 0) {
            // No trailers are sent: the terminating CRLF follows.
            if (buf.size() < pos + 2)
                return Parse::NeedMore;
            buf.erase(0, pos + 2);
            return Parse::Done;
        }
        if (buf.size() < pos + size + 2)
            return Parse::NeedMore;
        body.append(buf, pos, size);
        pos += size + 2;
    }
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace

RateResult
runAtRate(const RateConfig &cfg, const std::vector<PlannedRequest> &plan,
          const ResponseCheck &check)
{
    RateResult res;
    res.rate = cfg.rate;
    res.lateMs.reserve(plan.size());

    std::vector<std::string> wire;
    wire.reserve(plan.size());
    for (const PlannedRequest &r : plan)
        wire.push_back(wireBytes(r));

    std::vector<Conn> conns(static_cast<std::size_t>(cfg.connections));
    std::size_t outstanding = 0;

    auto failConn = [&](Conn &c) {
        res.failed += c.pending.size();
        outstanding -= c.pending.size();
        c.pending.clear();
        if (c.fd >= 0)
            ::close(c.fd);
        c = Conn{};
    };

    const Clock::time_point start = Clock::now();
    auto dueOf = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(i) / cfg.rate));
    };
    const auto grace = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kGraceS));
    // Closed loop: a request is due when it is sent, so the last due
    // time moves with every send.
    Clock::time_point last_due =
        cfg.closedLoop ? start : dueOf(plan.empty() ? 0 : plan.size() - 1);
    Clock::time_point last_done = start;
    auto freeConn = [](const Conn &c) { return c.pending.empty(); };

    std::size_t next = 0;
    std::vector<pollfd> fds(conns.size());
    std::string body;
    char chunk[65536];

    while (next < plan.size() || outstanding > 0) {
        Clock::time_point now = Clock::now();
        if (next >= plan.size() && now > last_due + grace)
            break;

        while (next < plan.size() &&
               (cfg.closedLoop
                    ? std::any_of(conns.begin(), conns.end(), freeConn)
                    : dueOf(next) <= now)) {
            auto it = std::min_element(
                conns.begin(), conns.end(),
                [](const Conn &a, const Conn &b) {
                    return a.pending.size() < b.pending.size();
                });
            Conn &c = *it;
            Clock::time_point due = cfg.closedLoop ? now : dueOf(next);
            if (cfg.closedLoop)
                last_due = now;
            res.lateMs.push_back(msBetween(due, now));
            ++res.sent;
            if (c.fd < 0) {
                c.fd = connectLoopback(cfg.port);
                if (c.fd < 0) {
                    ++res.failed;
                    ++next;
                    continue;
                }
            }
            c.out += wire[next];
            c.pending.push_back({next, due});
            ++outstanding;
            ++next;
        }
        if (cfg.sampler)
            res.sampledMax = std::max(res.sampledMax, cfg.sampler());

        // Flush what the sockets will take before sleeping.
        for (Conn &c : conns) {
            while (c.fd >= 0 && c.outOff < c.out.size()) {
                ssize_t n = ::send(c.fd, c.out.data() + c.outOff,
                                   c.out.size() - c.outOff, MSG_NOSIGNAL);
                if (n > 0) {
                    c.outOff += static_cast<std::size_t>(n);
                } else if (n < 0 && errno == EINTR) {
                    continue;
                } else if (n < 0 &&
                           (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    break;
                } else {
                    failConn(c);
                }
            }
            if (c.fd >= 0 && c.outOff == c.out.size()) {
                c.out.clear();
                c.outOff = 0;
            }
        }

        now = Clock::now();
        Clock::time_point wake = next < plan.size() && !cfg.closedLoop
                                     ? dueOf(next)
                                     : last_due + grace;
        auto wait = std::max<Clock::duration>(wake - now,
                                              Clock::duration::zero());
        auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(wait);
        timespec ts{static_cast<time_t>(ns.count() / 1000000000),
                    static_cast<long>(ns.count() % 1000000000)};

        for (std::size_t k = 0; k < conns.size(); ++k) {
            fds[k].fd = conns[k].fd;
            fds[k].events = POLLIN;
            if (conns[k].outOff < conns[k].out.size())
                fds[k].events |= POLLOUT;
            fds[k].revents = 0;
        }
        int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (ready < 0 && errno != EINTR)
            throw std::runtime_error(std::string("ppoll: ") +
                                     std::strerror(errno));
        if (ready <= 0)
            continue;

        for (std::size_t k = 0; k < conns.size(); ++k) {
            Conn &c = conns[k];
            if (c.fd < 0 || !(fds[k].revents & (POLLIN | POLLERR | POLLHUP)))
                continue;
            bool eof = false;
            for (;;) {
                ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
                if (n > 0) {
                    c.in.append(chunk, static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                eof = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
                break;
            }
            Clock::time_point got = Clock::now();
            bool close_after = false;
            for (;;) {
                int status = 0;
                Parse p = takeResponse(c.in, status, body, close_after);
                if (p == Parse::NeedMore)
                    break;
                if (p == Parse::Bad || c.pending.empty()) {
                    eof = true;
                    break;
                }
                Pending done = c.pending.front();
                c.pending.pop_front();
                --outstanding;
                last_done = got;
                const PlannedRequest &req = plan[done.index];
                if (status >= 200 && status < 300) {
                    ++res.ok;
                    res.latencyMs[req.cls].push_back(
                        msBetween(done.due, got));
                    check(req, body);
                } else if (status == 429 || status == 503) {
                    ++res.shed;
                } else {
                    ++res.failed;
                }
                if (close_after) {
                    eof = true;
                    break;
                }
            }
            if (eof)
                failConn(c);
        }
    }

    // Whatever is still outstanding after the grace period failed.
    for (Conn &c : conns)
        failConn(c);
    res.drainS = std::max(
        0.0, std::chrono::duration<double>(last_done - last_due).count());
    res.elapsedS = std::chrono::duration<double>(last_done - start).count();
    return res;
}

} // namespace perfbench
