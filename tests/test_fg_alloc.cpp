// Allocation guarantees for the per-entity detectors. On the hot path, the
// per-alert filter (EntityFilter), a non-firing FactorGraphDetector and a
// non-firing RuleBasedDetector never touch the heap. Per entity, copying
// the trained rule matcher (what the pipelines' factories do for every new
// entity) allocates exactly once: its progress bytes, the compiled
// signature table being shared. Verified by counting global operator
// new/delete hits around the calls.
//
// The counting replacements are malloc-backed and unconditionally defined:
// under ASan the sanitizer interposes malloc itself, so the counters keep
// working (they wrap the sanitizer's allocator rather than fight it).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
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
  ASSERT_EQ(rules.signature_count(), 39u);
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
