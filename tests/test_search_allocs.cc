/**
 * @file
 * Heap allocations of the Sunstone search per examined candidate. This
 * executable replaces the global operator new with a counting one, so it
 * stands alone: every other test links the default allocator.
 *
 * The beam keeps a step's alpha-beta survivors as small records and
 * builds a Partial only for the few the trim keeps, so a warmed search
 * allocates far less than once per candidate. A copy per survivor
 * (about 0.7 allocations per candidate on this workload) fails the bound.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "arch/presets.hh"
#include "core/sunstone.hh"
#include "model/eval_engine.hh"
#include "workload/zoo.hh"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

// The nothrow forms (std::stable_sort's buffer) must be replaced too:
// every block these return is released by the free()-based deletes.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &t) noexcept
{
    return operator new(n, t);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept { std::free(p); }

namespace sunstone {
namespace {

/** One 1-thread search on a fresh engine; counts only the search. */
SunstoneResult
countedSearch(const BoundArch &ba, std::uint64_t &allocs)
{
    EvalEngineOptions eo;
    eo.threads = 1;
    EvalEngine eng(eo);
    SunstoneOptions opts;
    opts.engine = &eng;
    opts.threads = 1;
    g_allocs.store(0);
    g_counting.store(true);
    SunstoneResult r = sunstoneOptimize(ba, opts);
    g_counting.store(false);
    allocs = g_allocs.load();
    return r;
}

TEST(SearchAllocs, FewerThanOnePerTwentyCandidates)
{
    const BoundArch ba(makeConventional(),
                       makeMTTKRP(12096, 9216, 28800, 32, "mttkrp_nell2"));
    // The first search warms the thread's scratch buffers and the
    // divisor cache, which later searches reuse.
    std::uint64_t warm = 0;
    countedSearch(ba, warm);
    std::uint64_t allocs = 0;
    const SunstoneResult r = countedSearch(ba, allocs);
    ASSERT_TRUE(r.found);
    ASSERT_GT(r.candidatesExamined, 100000);
    const double per =
        static_cast<double>(allocs) / static_cast<double>(r.candidatesExamined);
    RecordProperty("allocs", std::to_string(allocs));
    RecordProperty("candidates", std::to_string(r.candidatesExamined));
    EXPECT_LE(per, 0.05) << allocs << " allocations for "
                         << r.candidatesExamined << " candidates";
}

} // namespace
} // namespace sunstone
