// Allocation guarantees for the per-entity detectors. On the hot path, the
// per-alert filter (EntityFilter), a non-firing FactorGraphDetector and a
// non-firing RuleBasedDetector never touch the heap. Per entity, copying
// the trained rule matcher (what the pipelines' factories do for every new
// entity) allocates exactly once: its progress bytes, the compiled
// signature table being shared. The BHR's metadata tier allocates per /24
// page, not per blocked host, and gives back every interned reason once
// its blocks are gone. Verified by counting global operator new/delete
// hits around the calls.
//
// The counting replacements are malloc-backed and unconditionally defined:
// under ASan the sanitizer interposes malloc itself, so the counters keep
// working (they wrap the sanitizer's allocator rather than fight it).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bhr/bhr.hpp"
#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_frees{0};

void counted_free(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Global replacements: count every heap allocation in the process. Tests
// are exempt from the raw-new-delete lint rule; these exist precisely to
// observe allocator traffic.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

// At -O2 GCC pairs inlined `new` expressions with the free() below and
// warns -Wmismatched-new-delete; the pairing is correct by construction
// here because the replacement operator new above is malloc-backed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace at::fg {
namespace {

using alerts::AlertType;

const ModelParams& model() {
  static const ModelParams p = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return learn_params(incidents::CorpusGenerator(config).generate());
  }();
  return p;
}

template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(FgAllocation, EntityFilterObserveAllocatesNothing) {
  EntityFilter filter(compile_params(model()));
  const AlertType stream[] = {AlertType::kPortScan, AlertType::kSshBruteforce,
                              AlertType::kDownloadSensitive, AlertType::kJobSubmitted};
  // Constant-size state: no warm-up, the very first observe is clean.
  const auto allocated = allocations_during([&] {
    for (int round = 0; round < 64; ++round) {
      for (const AlertType type : stream) filter.observe(type, GapBucket::kMinutes);
    }
  });
  EXPECT_EQ(allocated, 0u) << "EntityFilter::observe touched the heap";
  EXPECT_EQ(filter.observed(), 256u);
}

TEST(FgAllocation, ForwardDetectorObserveAllocatesNothing) {
  // A threshold no posterior reaches: every call takes the non-firing path
  // the shard workers run for almost every alert.
  detect::FactorGraphDetector detector(compile_params(model()), 1.5,
                                       alerts::AttackStage::kInProgress, true);
  alerts::Alert alert;
  const AlertType stream[] = {AlertType::kLoginSuccess, AlertType::kPortScan,
                              AlertType::kDownloadSensitive, AlertType::kC2Communication};
  std::size_t index = 0;
  const auto allocated = allocations_during([&] {
    for (int round = 0; round < 64; ++round) {
      for (const AlertType type : stream) {
        alert.type = type;
        alert.ts += 45;
        if (detector.observe(alert, index++)) ADD_FAILURE() << "detector fired";
      }
    }
  });
  EXPECT_EQ(allocated, 0u) << "non-firing FactorGraphDetector::observe touched the heap";
}

}  // namespace
}  // namespace at::fg

namespace at::detect {
namespace {

/// The deployed ruleset: trained on the testbed's fixed training corpus.
const RuleBasedDetector& trained_rules() {
  static const RuleBasedDetector rules = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    config.seed = 7;
    config.threads = 1;
    return RuleBasedDetector::train(incidents::CorpusGenerator(config).generate().incidents);
  }();
  return rules;
}

TEST(RuleMatcherAllocation, CopyAllocatesOnce) {
  const RuleBasedDetector& rules = trained_rules();
  ASSERT_EQ(rules.signatures().size(), 39u);
  const auto allocated = fg::allocations_during([&] {
    RuleBasedDetector copy(rules);
    copy.reset();
  });
  EXPECT_EQ(allocated, 1u) << "copying the rule matcher deep-copied its signatures";
}

TEST(RuleMatcherAllocation, NonFiringObserveAllocatesNothing) {
  RuleBasedDetector matcher(trained_rules());
  matcher.reset();
  // Benign activity, a probe and an out-of-taxonomy value: no signature
  // completes, so every call takes the non-firing path.
  const alerts::AlertType stream[] = {alerts::AlertType::kLoginSuccess,
                                      alerts::AlertType::kPortScan,
                                      alerts::AlertType::kJobSubmitted,
                                      static_cast<alerts::AlertType>(255)};
  alerts::Alert alert;
  std::size_t index = 0;
  const auto allocated = fg::allocations_during([&] {
    for (int round = 0; round < 64; ++round) {
      for (const alerts::AlertType type : stream) {
        alert.type = type;
        alert.ts += 45;
        if (matcher.observe(alert, index++)) ADD_FAILURE() << "matcher fired";
      }
    }
  });
  EXPECT_EQ(allocated, 0u) << "non-firing RuleBasedDetector::observe touched the heap";
}

}  // namespace
}  // namespace at::detect

namespace at::bhr {
namespace {

TEST(BhrAllocation, ScannerNetFillAllocatesPerPageNotPerHost) {
  // 400 scanner /24s blackholed host by host (102,400 block() calls), the
  // live_flows populate. The node-based tier made one map node per host.
  constexpr std::uint32_t kNets = 400;
  BlackHoleRouter router;
  const auto allocated = fg::allocations_during([&] {
    for (std::uint32_t n = 0; n < kNets; ++n) {
      const std::uint32_t base = 0xb9000000u | (((n * 97u) & 0xffffu) << 8);
      for (std::uint32_t h = 0; h < 256; ++h) {
        router.block(net::Ipv4(base | h), 0, 0, "scanner net", "alertbench");
      }
    }
  });
  EXPECT_EQ(router.active_blocks(0), kNets * 256u);
  EXPECT_LT(allocated, 16u * kNets) << allocated << " allocations for " << kNets << " pages";
}

TEST(BhrAllocation, UniqueReasonsAreReleasedWithTheirBlocks) {
  // Factor-graph reasons embed the score, so nearly every block names a
  // new reason. Once the blocks are gone, so are the interned strings:
  // what stays allocated is the tables' capacity, not one buffer per name.
  BlackHoleRouter router;
  router.block(net::Ipv4(198, 51, 100, 1), 0, 0, "warm-up", "detector");
  constexpr std::uint32_t kHosts = 10'000;
  const std::uint64_t allocs0 = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t frees0 = g_frees.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    router.block(net::Ipv4(0xcb000000u + i * 7u), 1, 600,
                 "factor-graph: P(stage >= in_progress) = 0.9" + std::to_string(i),
                 "detector");
  }
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    router.unblock(net::Ipv4(0xcb000000u + i * 7u), 2, "detector");
  }
  const std::uint64_t live = (g_allocations.load(std::memory_order_relaxed) - allocs0) -
                             (g_frees.load(std::memory_order_relaxed) - frees0);
  EXPECT_EQ(router.active_blocks(2), 1u);
  EXPECT_LT(live, 64u) << live << " allocations outlived " << kHosts << " unblocked hosts";
}

}  // namespace
}  // namespace at::bhr
