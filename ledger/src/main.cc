/**
 * @file
 * Entry point of the scheduling benchmark:
 *
 *   ledger --workload net_sched|serve_mix --seed N
 *          --seconds S --trace 0|1 --cli PATH --workdir DIR
 *
 * With `--counts 1` it instead prints the exact counts of one 1-thread
 * core search over the workload's layers and of the workload's 1-thread
 * engine pass (the self-test's child run).
 *
 * Prints detail lines starting with '#', then one JSON object as the last
 * stdout line. Exits 1 when an output check failed.
 */

#include <csignal>
#include <cstdio>
#include <exception>
#include <string>

#include "common/logging.hh"
#include "ledger.hh"

int
main(int argc, char **argv)
{
    using namespace ledger;
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--cli")
            a.cli = v;
        else if (k == "--workdir")
            a.workdir = v;
        else if (k == "--counts")
            a.counts = v == "1";
        else {
            std::fprintf(stderr, "ledger: unknown argument %s\n", k.c_str());
            return 2;
        }
    }
    setLogLevel(LogLevel::Warn);
    // A server that dies mid-request must fail the run, not kill it.
    std::signal(SIGPIPE, SIG_IGN);
    Report r;
    try {
        if (a.counts)
            return printCounts(a);
        if (a.workload == "net_sched")
            runNetSched(a, r);
        else if (a.workload == "serve_mix")
            runServeMix(a, r);
        else {
            std::fprintf(stderr, "ledger: unknown workload '%s'\n",
                         a.workload.c_str());
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ledger: %s\n", e.what());
        return 1;
    }
    if (r.attempted < 1 || r.probes < 1) {
        std::fprintf(stderr, "ledger: no operation or probe was attempted\n");
        return 1;
    }
    // Probes answered as a plain success show the silent-overflow
    // defect; a fix that rejects or flags them lowers this share.
    const double unhandled = static_cast<double>(r.probesUnhandled) /
                             static_cast<double>(r.probes);
    Report::detail("probes", "{\"sent\": " + std::to_string(r.probes) +
                                 ", \"unhandled\": " +
                                 std::to_string(r.probesUnhandled) + "}");
    if (a.trace)
        r.metric("probe.unhandled_frac", unhandled, "frac");
    std::printf("%s\n", r.toJson().c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
