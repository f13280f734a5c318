/**
 * @file
 * serve_mix: one client in a closed loop (one request outstanding) sends
 * a seeded request stream to a `sunstone serve` process over its
 * stdin/stdout pipes. Each block of 7 requests holds one request of each
 * class, in a seeded order:
 *  - a cold `map` request of a distinct shape x arch pair from the zoo
 *    nets (ResNet-18 on simba, VGG-16 on conventional);
 *  - an exact repeat, which the result cache answers;
 *  - a re-seeded repeat, which hits only the engine memo cache;
 *  - a `warm_start` request on the same layer at three times the batch,
 *    which records into and queries the warm-start store;
 *  - a small `net` request (attention with greedy fusion, tcl,
 *    depthwise) on conventional, each naming a net the session has not
 *    scheduled yet;
 *  - an `eval` request re-scoring a mapping the stream returned earlier;
 *  - an overflow probe, which passes only when rejected or flagged
 *    saturated.
 * No class is weighted over another. Four of the seven search, so the
 * median request is a search and latency_p50_ms measures CPU work, not
 * the cross-process wake-ups that dominate a ~0.2 ms cached answer.
 * Every request carries non-binding stop bounds, so a default serve
 * budget cannot change the work.
 *
 * A pass sends blocks to a fresh server until every cold request has
 * been sent, re-seeded and warm-started once (22 blocks). Passes
 * alternate between a 4-thread and a 1-thread server and all replay the
 * same stream.
 */

#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json.hh"
#include "ledger.hh"
#include "mapping/serialize.hh"
#include "search/rng.hh"
#include "service/request.hh"
#include "service/session.hh"
#include "workload/nets.hh"

extern char **environ;

namespace ledger {

namespace {

using service::MappingRequest;
using service::MappingResponse;

constexpr int kBlock = 7;
const char *const kStop =
    "\"stop\": {\"max_evals\": 1000000000, \"plateau\": 1000000000}";

/**
 * The cold set: the unique layers of ResNet-18 on simba and VGG-16 on
 * conventional, at batch 1, in a seeded order.
 */
std::vector<std::string>
coldPool(std::uint64_t seed)
{
    const std::pair<const char *, std::vector<Layer>> nets[] = {
        {"simba", resnet18Layers(1)},
        {"conventional", vgg16Layers(1)}};
    std::vector<std::string> out;
    std::vector<std::vector<std::int64_t>> seen;
    for (const auto &[arch, layers] : nets)
        for (const Layer &l : layers) {
            if (std::find(seen.begin(), seen.end(), l.workload.shape()) !=
                seen.end())
                continue;
            seen.push_back(l.workload.shape());
            std::istringstream is(workloadToText(l.workload));
            std::string einsum, dims;
            for (std::string line; std::getline(is, line);) {
                if (line.rfind("einsum ", 0) == 0)
                    einsum = line.substr(7);
                else if (line.rfind("dims ", 0) == 0)
                    dims = line.substr(5);
            }
            out.push_back("\"workload\": {\"einsum\": \"" + jsonEscape(einsum) +
                          "\", \"dims\": \"" + dims + "\", \"name\": \"" +
                          l.workload.name() + "\"}, \"arch\": \"" + arch + "\"");
        }
    RngStream rng(seed ^ 0x636f6c64ULL);
    rng.shuffle(out);
    return out;
}

/**
 * The small nets, one per net request: attention at growing sequence
 * lengths, depthwise blocks at growing batch, and tcl. There are more of
 * them than a pass sends, so every net request searches.
 */
std::vector<std::string>
netVariants()
{
    std::vector<std::string> out;
    for (int i = 1; i <= 16; ++i) {
        out.push_back("\"net\": \"attention\", \"fuse\": \"greedy\", "
                      "\"seq\": " +
                      std::to_string(32 * i));
        if (i <= 8)
            out.push_back("\"net\": \"depthwise\", \"batch\": " +
                          std::to_string(i));
        if (i == 1)
            out.push_back("\"net\": \"tcl\"");
    }
    return out;
}

const char *const kProbes[] = {
    "\"workload\": {\"conv\": \"n=1000000000,k=1000000000,c=1000000000,"
    "p=1,q=1,r=1,s=1\"}, \"arch\": \"conventional\"",
    "\"workload\": {\"conv\": \"n=1000000007,k=1000000007,c=1000000007,"
    "p=1,q=1,r=1,s=1\"}, \"arch\": \"conventional\"",
};

bool
hasSaturatedFlag(const JsonValue &v)
{
    for (const auto &[k, f] : v.fields)
        if ((k == "saturated" && f.asBool()) || hasSaturatedFlag(f))
            return true;
    for (const auto &i : v.items)
        if (hasSaturatedFlag(i))
            return true;
    return false;
}

/** Rebuilds the BoundArch a map/eval request is served on. */
BoundArch
boundArchOf(const std::string &line)
{
    JsonValue v;
    MappingRequest req;
    std::string err;
    if (!parseJson(line, v, &err) || !MappingRequest::fromJson(v, req, &err))
        throw std::runtime_error("bad request line: " + err);
    Workload wl = service::materializeWorkload(req);
    service::applyArchPrecisions(req, wl);
    return BoundArch(service::materializeArch(req), wl);
}

/**
 * Parses the loop-nest rendering (Mapping::toString), the only form in
 * which a response carries its mapping, back to a Mapping. Loops the
 * rendering omits have trip count 1; they go outermost.
 */
Mapping
parseNest(const std::string &text, const BoundArch &ba)
{
    const Workload &wl = ba.workload();
    Mapping m(ba.numLevels(), wl.numDims());
    std::vector<std::vector<DimId>> printed(ba.numLevels());
    int level = -1;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) {
        std::istringstream ls(line);
        std::string tok;
        ls >> tok;
        if (tok.empty() || tok == "compute")
            continue;
        if (tok.front() == '[') {
            const std::string name = tok.substr(1, tok.size() - 2);
            level = -1;
            for (int l = 0; l < ba.numLevels(); ++l)
                if (ba.arch().levels[l].name == name)
                    level = l;
            if (level < 0)
                throw std::runtime_error("unknown level " + name);
            ls >> tok;
        }
        do {
            std::string dim, in, range;
            if (tok != "for" && tok != "parallel-for")
                break;
            ls >> dim >> in >> range;
            const DimId d = wl.dimByName(dim);
            const std::int64_t n = std::stoll(range.substr(3));
            if (tok == "for") {
                m.level(level).temporal[d] = n;
                printed[level].push_back(d);
            } else {
                m.level(level).spatial[d] = n;
            }
        } while (ls >> tok);
    }
    for (int l = 0; l < ba.numLevels(); ++l) {
        std::vector<DimId> order;
        for (DimId d = 0; d < wl.numDims(); ++d)
            if (std::find(printed[l].begin(), printed[l].end(), d) ==
                printed[l].end())
                order.push_back(d);
        order.insert(order.end(), printed[l].begin(), printed[l].end());
        m.level(l).order = order;
    }
    return m;
}

/** A completed request the stream may revisit. */
struct Entry
{
    std::string body; ///< request fields without id
    double energy = 0, delay = 0, edp = 0;
    std::string mapping;
};

/** One answered request as the client saw it. */
struct Answer
{
    std::string cls;
    double seconds = 0;
    std::string line;
    std::string response;
};

/**
 * The seeded request stream of one pass: blocks until every request of
 * the cold set has been sent, re-seeded and warm-started once. The i-th
 * re-seed and warm start target the i-th answered cold request and the
 * i-th net request the i-th net variant, so every seed's pass does the
 * same searches; the seed decides their order and which earlier answers
 * the cheap repeats and evals revisit. Those choices depend only on the
 * seed and on earlier answers, which are deterministic, so every pass of
 * a seed sends the same requests in the same order.
 */
class Stream
{
  public:
    Stream(std::uint64_t seed, std::string workdir)
        : rng_(seed), workdir_(std::move(workdir)), pool_(coldPool(seed)),
          nets_(netVariants())
    {
    }

    /**
     * Whether the pass is over. A block sends one cold, and re-seeds and
     * warm starts can lag the colds by at most one, so one block more
     * than the cold set needs always finishes every search; a fixed
     * length keeps every pass the same size.
     */
    bool
    done() const
    {
        return static_cast<std::size_t>(sent_) == (pool_.size() + 1) * kBlock;
    }

    /** @return the next request line; its class is in pendingClass(). */
    std::string
    next()
    {
        if (pos_ == block_.size()) {
            block_ = {"cold", "repeat", "reseed", "warm",
                      "net",  "eval",   "probe"};
            rng_.shuffle(block_);
            pos_ = 0;
        }
        std::string cls = block_[pos_++];
        if ((cls == "cold" && poolPos_ == pool_.size()) ||
            (cls == "reseed" && reseeds_ == colds_.size()) ||
            (cls == "warm" && warms_ == colds_.size()))
            cls = "repeat";
        if ((cls == "repeat" && cacheable_.empty()) ||
            (cls == "eval" && colds_.empty()))
            cls = poolPos_ < pool_.size() ? "cold" : "net";
        return make(cls);
    }

    const std::string &pendingClass() const { return pending_.cls; }

    /**
     * Checks one answer against what the stream knows and counts it: a
     * probe as a probe, anything else as an operation.
     */
    void
    record(const Answer &a, Report &r)
    {
        JsonValue v;
        std::string err;
        const bool parsed = parseJson(a.response, v, &err) && v.isObject();
        const bool ok = parsed && v.find("ok") && v.find("ok")->asBool();
        if (a.cls == "probe" && parsed) {
            r.probe(!ok || hasSaturatedFlag(v));
            return;
        }
        ++r.attempted;
        if (!parsed) {
            ++r.failed;
            r.checkFailed("unparsable response: " + err);
            return;
        }
        std::string why;
        if (!ok) {
            const JsonValue *e = v.find("error");
            why = "ok:false: " + (e ? e->asString() : std::string());
        } else {
            why = check(a, v);
        }
        if (!why.empty()) {
            ++r.failed;
            r.checkFailed(a.cls + " " + pending_.body + ": " + why);
        }
    }

    /** The cold set's achieved EDPs. */
    std::vector<double>
    coldEdps() const
    {
        std::vector<double> out;
        for (std::size_t i : colds_)
            out.push_back(done_[i].edp);
        return out;
    }

  private:
    struct Pending
    {
        std::string cls;
        std::string body;
        int ref = -1;
    };

    std::string
    make(const std::string &cls)
    {
        pending_ = {cls, "", -1};
        if (cls == "cold") {
            pending_.body = "\"kind\": \"map\", " + pool_[poolPos_++] + ", " +
                            kStop;
        } else if (cls == "repeat") {
            pending_.ref = static_cast<int>(
                cacheable_[rng_.below(cacheable_.size())]);
            pending_.body = done_[pending_.ref].body;
        } else if (cls == "reseed") {
            pending_.ref = static_cast<int>(colds_[reseeds_++]);
            const std::string &b = done_[pending_.ref].body;
            pending_.body = b.substr(0, b.size() - 1) + ", \"seed\": " +
                            std::to_string(reseeds_) + "}";
        } else if (cls == "warm") {
            pending_.ref = static_cast<int>(colds_[warms_++]);
            pending_.body = scaledBatch(done_[pending_.ref].body) +
                            ", \"warm_start\": true";
        } else if (cls == "net") {
            pending_.body =
                std::string("\"kind\": \"net\", ") +
                nets_[netPos_++ % nets_.size()] +
                ", \"arch\": \"conventional\", " + kStop;
        } else if (cls == "eval") {
            pending_.ref = static_cast<int>(colds_[rng_.below(colds_.size())]);
            const Entry &e = done_[pending_.ref];
            const std::string path =
                workdir_ + "/eval_" + std::to_string(pending_.ref) + ".map";
            const BoundArch ba = boundArchOf("{" + e.body + "}");
            saveMappingFile(parseNest(e.mapping, ba), ba, path);
            // eval does not apply the simba precisions that map applies,
            // so the request names the word widths it was mapped with.
            std::string bits;
            std::istringstream is(workloadToText(ba.workload()));
            for (std::string line; std::getline(is, line);)
                if (line.rfind("bits ", 0) == 0)
                    bits = line.substr(5);
            std::string b = e.body;
            b.replace(b.find("\"map\""), 5, "\"eval\"");
            b.insert(b.find("}, \"arch\""), ", \"bits\": \"" + bits + "\"");
            pending_.body = b.substr(0, b.find(", \"stop\"")) +
                            ", \"mapping_file\": \"" + path + "\"";
        } else {
            pending_.body = std::string("\"kind\": \"map\", ") +
                            kProbes[probes_++ % 2] + ", " + kStop;
        }
        return "{\"id\": \"r" + std::to_string(++sent_) + "\", " +
               pending_.body + "}";
    }

    /** The same request at three times the batch (dim n). */
    static std::string
    scaledBatch(const std::string &body)
    {
        std::string b = body;
        const std::size_t d = b.find("\"dims\": \"");
        const std::size_t n = b.find("n=", d);
        const std::size_t end = b.find_first_of(",\"", n + 2);
        const long long batch = std::stoll(b.substr(n + 2, end - n - 2));
        b.replace(n + 2, end - n - 2, std::to_string(3 * batch));
        return b;
    }

    /** @return "" when the answer checks out, else why not. */
    std::string
    check(const Answer &a, const JsonValue &v)
    {
        const JsonValue *res = v.find("result");
        if (!res || !res->isObject())
            return "no result";
        const bool cached = v.find("cached") && v.find("cached")->asBool();
        Entry e;
        e.body = pending_.body;
        const bool net = e.body.rfind("\"kind\": \"net\"", 0) == 0;
        if (net) {
            if (!res->find("allFound") || !res->find("allFound")->asBool())
                return "net not fully scheduled";
            e.edp = res->find("totalEdp")->asDouble();
            e.energy = res->find("totalEnergyPj")->asDouble();
            e.delay = res->find("totalDelaySeconds")->asDouble();
        } else {
            if (!res->find("found") || !res->find("found")->asBool())
                return "no mapping found";
            e.energy = res->find("energy_pj")->asDouble();
            e.delay = res->find("delay_seconds")->asDouble();
            e.edp = res->find("edp")->asDouble();
            const JsonValue *m = v.find("mapping");
            e.mapping = m ? m->asString() : "";
        }
        const Entry *ref = pending_.ref >= 0 ? &done_[pending_.ref] : nullptr;
        if (a.cls == "repeat" || a.cls == "eval") {
            if (a.cls == "repeat" && !cached)
                return "repeat not answered from the result cache";
            if (e.energy != ref->energy || e.delay != ref->delay ||
                (a.cls == "repeat" && e.mapping != ref->mapping))
                return "differs from the original answer";
            return "";
        }
        if (!net) {
            const BoundArch ba = boundArchOf("{" + e.body + "}");
            CostResult reported;
            reported.valid = true;
            reported.totalEnergyPj = e.energy;
            reported.delaySeconds = e.delay;
            std::string why;
            if (!checkWinner(ba, parseNest(e.mapping, ba), reported, &why))
                return why;
        }
        if (a.cls == "cold")
            colds_.push_back(done_.size());
        if (a.cls != "warm" && !cached)
            cacheable_.push_back(done_.size());
        done_.push_back(std::move(e));
        return "";
    }

    RngStream rng_;
    std::string workdir_;
    std::vector<std::string> block_;
    std::size_t pos_ = 0;
    std::vector<std::string> pool_;
    std::size_t poolPos_ = 0;
    std::vector<Entry> done_;
    std::vector<std::size_t> colds_, cacheable_;
    std::vector<std::string> nets_;
    std::size_t reseeds_ = 0, warms_ = 0, netPos_ = 0;
    int sent_ = 0, probes_ = 0;
    Pending pending_;
};

/** A `sunstone serve` child process on pipes. */
class ServeProcess
{
  public:
    ServeProcess(const std::string &cli, unsigned threads)
    {
        int in[2], out[2], err[2];
        if (pipe(in) || pipe(out) || pipe(err))
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, in[0], 0);
        posix_spawn_file_actions_adddup2(&fa, out[1], 1);
        posix_spawn_file_actions_adddup2(&fa, err[1], 2);
        for (int fd : {in[0], in[1], out[0], out[1], err[0], err[1]})
            posix_spawn_file_actions_addclose(&fa, fd);
        const std::string t = std::to_string(threads);
        const char *argv[] = {cli.c_str(), "serve", "--threads", t.c_str(),
                              nullptr};
        const double t0 = now();
        const int rc = posix_spawn(&pid_, cli.c_str(), &fa, nullptr,
                                   const_cast<char **>(argv), environ);
        posix_spawn_file_actions_destroy(&fa);
        close(in[0]);
        close(out[1]);
        close(err[1]);
        in_ = in[1];
        out_ = out[0];
        err_ = err[0];
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot spawn " + cli);
        }
        std::string ready;
        try {
            ready = readLine(err_, errBuf_);
        } catch (...) {
            finish();
            throw;
        }
        readySeconds = now() - t0;
        if (ready.find("ready") == std::string::npos) {
            finish();
            throw std::runtime_error("serve did not start: " + ready);
        }
        // Keep draining stderr so the server never blocks on it.
        drain_ = std::thread([this] {
            char buf[4096];
            while (read(err_, buf, sizeof buf) > 0) {
            }
        });
    }

    ~ServeProcess() { finish(); }

    ServeProcess(const ServeProcess &) = delete;
    ServeProcess &operator=(const ServeProcess &) = delete;

    std::string
    call(const std::string &line)
    {
        const std::string msg = line + "\n";
        for (std::size_t off = 0; off < msg.size();) {
            const ssize_t n = write(in_, msg.data() + off, msg.size() - off);
            if (n <= 0)
                throw std::runtime_error("serve closed its input");
            off += static_cast<std::size_t>(n);
        }
        return readLine(out_, outBuf_);
    }

    long peakRssKb() const { return procStatusKb(pid_, "VmHWM"); }

    /** CPU seconds (user plus system) the server has used so far. */
    double
    cpuSeconds() const
    {
        std::ifstream is("/proc/" + std::to_string(pid_) + "/stat");
        std::string stat((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        // Fields after the parenthesised command name; utime and stime
        // are the 12th and 13th of them, in clock ticks.
        std::istringstream fs(stat.substr(stat.rfind(')') + 2));
        std::string f;
        double ticks = 0;
        for (int i = 1; i <= 13 && fs >> f; ++i)
            if (i >= 12)
                ticks += std::stod(f);
        return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
    }

    /** Closes stdin and reaps the child. */
    void
    finish()
    {
        if (pid_ <= 0)
            return;
        close(in_);
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
        if (drain_.joinable())
            drain_.join();
        close(out_);
        close(err_);
    }

    double readySeconds = 0;

  private:
    /** Reads one line; a stalled or dead server is an error. */
    static std::string
    readLine(int fd, std::string &buf)
    {
        for (;;) {
            const std::size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                return line;
            }
            struct pollfd p = {fd, POLLIN, 0};
            const int pr = poll(&p, 1, 60000);
            if (pr < 0 && errno == EINTR)
                continue;
            if (pr <= 0)
                throw std::runtime_error("serve did not answer in 60 s");
            char chunk[65536];
            const ssize_t n = read(fd, chunk, sizeof chunk);
            if (n <= 0)
                throw std::runtime_error("serve exited");
            buf.append(chunk, static_cast<std::size_t>(n));
        }
    }

    pid_t pid_ = -1;
    int in_ = -1, out_ = -1, err_ = -1;
    std::string outBuf_, errBuf_;
    std::thread drain_;
};

/** Sends the stream, one request outstanding, until its pass is done. */
template <class Call>
void
closedLoop(Stream &s, Call &&call, std::vector<Answer> &out, Report &r,
           std::size_t max_requests = SIZE_MAX)
{
    while (!s.done() && out.size() < max_requests) {
        Answer a;
        a.line = s.next();
        a.cls = s.pendingClass();
        const double t0 = now();
        a.response = call(a.line);
        a.seconds = now() - t0;
        s.record(a, r);
        out.push_back(std::move(a));
    }
}

/** One pass of the stream against a fresh server. */
struct Pass
{
    std::vector<Answer> answers;
    std::vector<double> coldEdps;
    double wall = 0;
    double ready = 0;
    double cpu = 0;
    long peakKb = 0;
};

Pass
servePass(const Args &a, unsigned threads, Report &r)
{
    Pass p;
    Stream s(a.seed, a.workdir);
    ServeProcess proc(a.cli, threads);
    p.ready = proc.readySeconds;
    const double cpu0 = proc.cpuSeconds();
    const double t0 = now();
    closedLoop(
        s, [&](const std::string &line) { return proc.call(line); },
        p.answers, r);
    p.wall = now() - t0;
    p.cpu = proc.cpuSeconds() - cpu0;
    p.peakKb = proc.peakRssKb();
    p.coldEdps = s.coldEdps();
    return p;
}

/** The stream's result fields, for comparing two sessions. */
std::string
resultKey(const std::string &response)
{
    JsonValue v;
    if (!parseJson(response, v))
        return "";
    const JsonValue *res = v.find("result");
    const JsonValue *m = v.find("mapping");
    std::string key = m ? m->asString() : "";
    if (res)
        for (const char *f : {"energy_pj", "delay_seconds", "totalEdp"})
            if (const JsonValue *x = res->find(f))
                key += "|" + x->raw;
    return key;
}

/** Replays the stream in process through a SchedulerSession. */
struct InProcess
{
    service::SchedulerSession session;
    std::vector<MappingResponse> responses;
    std::vector<std::int64_t> submitNs;

    static service::SessionOptions
    options(unsigned threads)
    {
        service::SessionOptions o;
        o.threads = threads;
        o.captureFatals = true;
        return o;
    }

    explicit InProcess(unsigned threads) : session(options(threads)) {}

    std::string
    call(const std::string &line)
    {
        JsonValue v;
        MappingRequest req;
        std::string err;
        MappingResponse resp;
        submitNs.push_back(obs::traceNowNs());
        if (!parseJson(line, v, &err) ||
            !MappingRequest::fromJson(v, req, &err))
            resp.error = "bad request: " + err;
        else
            resp = session.submit(req).get();
        responses.push_back(resp);
        return resp.toJson();
    }
};

/** What the in-process replays measured, for serve_mix's own metrics. */
struct Replay
{
    Attribution attribution;
    double untracedSeconds = 0; ///< the traced prefix, run untraced
    double tracedSeconds = 0;
};

/** Requests the traced replay sends (and the untraced one is timed on). */
constexpr std::size_t kTracedRequests = 15 * kBlock;

Replay
replayInProcess(const Args &a, Report &r)
{
    Replay rep;
    Stream s(a.seed, a.workdir);
    Pass run;
    InProcess ip(4);
    const long rss0 = procStatusKb(0, "VmRSS");
    closedLoop(
        s, [&](const std::string &line) { return ip.call(line); },
        run.answers, r);
    const long rss1 = procStatusKb(0, "VmRSS");
    for (std::size_t i = 0; i < run.answers.size() && i < kTracedRequests;
         ++i)
        rep.untracedSeconds += run.answers[i].seconds;

    std::map<std::string, std::vector<double>> byClass;
    std::vector<std::string> lines;
    double cached = 0;
    for (const Answer &ans : run.answers) {
        byClass[ans.cls].push_back(ans.seconds);
        lines.push_back(ans.line);
    }
    for (const auto &resp : ip.responses)
        cached += resp.cached;
    for (const char *cls :
         {"cold", "repeat", "reseed", "warm", "net", "eval", "probe"})
        r.metric(std::string("session.") + cls + "_p50_ms",
                 1e3 * median(byClass[cls]), "ms");
    r.metric("session.cached_frac", cached / ip.responses.size(), "frac");

    std::vector<double> parseUs, renderUs;
    for (int round = 0; round < 5; ++round) {
        double t0 = now();
        for (const std::string &line : lines) {
            JsonValue v;
            MappingRequest req;
            if (!parseJson(line, v) || !MappingRequest::fromJson(v, req, nullptr))
                r.checkFailed("a stream request does not parse");
        }
        parseUs.push_back(1e6 * (now() - t0) / lines.size());
        t0 = now();
        for (const auto &resp : ip.responses)
            if (resp.toJson().empty())
                r.checkFailed("empty response rendering");
        renderUs.push_back(1e6 * (now() - t0) / ip.responses.size());
    }
    r.metric("request.parse_us", median(parseUs), "us");
    r.metric("response.render_us", median(renderUs), "us");

    // Queue wait: from submit to the first span any other thread records
    // for the request (the requests that run a search record one).
    Stream ts(a.seed, a.workdir);
    Pass trun;
    InProcess tip(4);
    rep.attribution = traced([&] {
        closedLoop(
            ts, [&](const std::string &line) { return tip.call(line); },
            trun.answers, r, kTracedRequests);
    });
    for (const Answer &ans : trun.answers)
        rep.tracedSeconds += ans.seconds;
    const auto &starts = rep.attribution.otherStarts;
    std::vector<double> waits;
    for (std::size_t i = 0; i < tip.submitNs.size(); ++i) {
        const std::int64_t lo = tip.submitNs[i];
        const std::int64_t hi = i + 1 < tip.submitNs.size()
                                    ? tip.submitNs[i + 1]
                                    : std::numeric_limits<std::int64_t>::max();
        auto it = std::lower_bound(starts.begin(), starts.end(), lo);
        if (it != starts.end() && *it < hi)
            waits.push_back(1e-6 * static_cast<double>(*it - lo));
    }
    r.metric("session.queue_wait_ms", median(waits), "ms");

    JsonValue health;
    parseJson(ip.session.healthJson(), health);
    const JsonValue *sess = health.find("session");
    const JsonValue *entries =
        sess ? sess->find("result_cache_entries") : nullptr;
    r.metric("session.result_cache_entries", entries ? entries->asDouble() : 0,
             "count");
    r.metric("session.rss_kb_per_request",
             static_cast<double>(rss1 - rss0) / run.answers.size(), "kB");
    return rep;
}

} // anonymous namespace

std::vector<LayerItem>
serveSuiteLayers(std::uint64_t seed)
{
    // The first 16 requests of the cold set, as serve binds them.
    std::vector<LayerItem> out;
    for (const std::string &b : coldPool(seed)) {
        if (out.size() == 16)
            break;
        JsonValue v;
        MappingRequest req;
        parseJson("{\"kind\": \"map\", " + b + "}", v);
        MappingRequest::fromJson(v, req, nullptr);
        Workload wl = service::materializeWorkload(req);
        service::applyArchPrecisions(req, wl);
        out.push_back({req.archName, service::materializeArch(req), wl});
    }
    return out;
}

SearchStats
replayStats1t(const Args &a, Report &r)
{
    Stream s(a.seed, a.workdir);
    Pass run;
    InProcess ip(1);
    closedLoop(
        s, [&](const std::string &line) { return ip.call(line); },
        run.answers, r);
    return ip.session.engine().stats();
}

void
sessionLayerMetrics(const Args &a, Report &r)
{
    replayInProcess(a, r);
}

int
runServeMix(const Args &a, Report &r)
{
    if (a.trace) {
        const Replay rep = replayInProcess(a, r);
        Report::detail("attribution", rep.attribution.toJson());
        if (!rep.attribution.balanced)
            r.checkFailed("traced spans are incomplete or badly nested");
        r.metric("pool.busy_frac", rep.attribution.busyFrac(4), "frac");
        const std::vector<LayerItem> layers = serveSuiteLayers(a.seed);
        const std::int64_t selftestEvals = layerSuite(a, r);
        reportEngine(r, replayStats1t(a, r), selftestEvals);
        netLayerMetrics(a.seed, r);
        mapperLayerMetrics(a.seed, r);
        std::vector<double> bind, engine;
        for (int i = 0; i < 15; ++i) {
            double t0 = now();
            for (const LayerItem &l : layers)
                BoundArch(l.arch, l.wl);
            bind.push_back(now() - t0);
            t0 = now();
            InProcess ip(4);
            engine.push_back(now() - t0);
        }
        r.metric("setup.bind_s", median(bind), "s");
        r.metric("setup.engine_s", median(engine), "s");
        r.metric("trace.overhead_frac",
                 rep.tracedSeconds / rep.untracedSeconds - 1, "frac");
        return 0;
    }
    // Spawn-to-ready is a few ms; extra servers steady its median.
    std::vector<double> ready;
    for (int i = 0; i < 9; ++i)
        ready.push_back(ServeProcess(a.cli, 4).readySeconds);
    std::vector<Pass> p4s, p1s;
    const double end = now() + a.seconds;
    do {
        p4s.push_back(servePass(a, 4, r));
        p1s.push_back(servePass(a, 1, r));
        // Every pass replays the same stream: the 1-thread server and
        // later passes must answer exactly as the first pass did.
        for (const Pass *p : {&p4s.back(), &p1s.back()}) {
            if (p->answers.size() != p4s[0].answers.size()) {
                r.checkFailed("passes sent different streams");
                continue;
            }
            for (std::size_t i = 0; i < p->answers.size(); ++i)
                if (p->answers[i].line != p4s[0].answers[i].line ||
                    resultKey(p->answers[i].response) !=
                        resultKey(p4s[0].answers[i].response))
                    r.checkFailed("request " + std::to_string(i) +
                                  " answered differently across passes");
        }
    } while (now() < end);

    std::vector<double> wall4, wall1, cpu4, rps, peak;
    for (const Pass &p : p4s) {
        rps.push_back(p.answers.size() / p.wall);
        wall4.push_back(p.wall);
        cpu4.push_back(p.cpu);
        peak.push_back(p.peakKb / 1024.0);
        ready.push_back(p.ready);
    }
    for (const Pass &p : p1s) {
        wall1.push_back(p.wall);
        ready.push_back(p.ready);
    }
    // Every pass sends the same requests, and a single-layer search is no
    // faster on the 4-thread server, so each request's latency is its
    // median over every pass of the run: a sample per pass is too few to
    // steady the order statistics.
    std::vector<double> perRequest;
    for (std::size_t i = 0; i < p4s[0].answers.size(); ++i) {
        std::vector<double> secs;
        for (const auto *ps : {&p4s, &p1s})
            for (const Pass &p : *ps)
                if (i < p.answers.size())
                    secs.push_back(p.answers[i].seconds);
        perRequest.push_back(median(secs));
    }
    std::map<std::string, std::vector<double>> byClass;
    for (std::size_t i = 0; i < perRequest.size(); ++i)
        byClass[p4s[0].answers[i].cls].push_back(perRequest[i]);
    std::string classes;
    for (const auto &[cls, secs] : byClass)
        classes += (classes.empty() ? "{\"" : ", \"") + cls +
                   "_p50_ms\": " + std::to_string(1e3 * median(secs));
    Report::detail("classes", classes + "}");

    r.metric("setup_s", median(ready), "s");
    r.metric("schedule_s", median(wall4), "s");
    r.metric("schedule_1t_s", median(wall1), "s");
    r.metric("cpu_s", median(cpu4), "s");
    r.metric("edp_geomean", geomean(p4s[0].coldEdps), "pJ.s");
    reportLatency(r,
                  "request, median over " +
                      std::to_string(p4s.size() + p1s.size()) +
                      " passes of 4- and 1-thread servers",
                  perRequest);
    r.metric("throughput_rps", median(rps), "1/s");
    r.metric("peak_rss_mb", median(peak), "MB");
    return 0;
}

} // namespace ledger
