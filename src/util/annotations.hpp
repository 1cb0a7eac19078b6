#pragma once
// Lint-facing annotation vocabulary. Every macro here expands to nothing on
// every compiler: they are machine-readable documentation consumed by
// tools/at_lint's whole-program phase (docs/static-analysis.md has the rule
// reference). Keeping them in a dependency-free header means hot-path code
// can carry the markers without pulling in <mutex> via annotated_mutex.hpp.
//
//   AT_HOT          on a function *definition* (suffix position, before the
//                   body): this function is a latency-critical hot path.
//                   at_lint roots its call-graph reachability analysis here:
//                   everything transitively callable from an AT_HOT function
//                   must be free of blocking calls (blocking-in-hot-path)
//                   and must spell atomic memory orders explicitly
//                   (atomic-order). The sim::Engine drain loop (run/
//                   run_until/step) is an implicit root and does not need
//                   the marker.
//
//   AT_ACQUIRES(...) on a function definition (suffix position): this
//                   function acquires AND releases the named mutexes
//                   internally. at_lint's lock-order rule propagates the
//                   set to every call site, so a caller holding lock A that
//                   calls a helper marked AT_ACQUIRES(b_mu_) contributes an
//                   A -> b_mu_ edge to the repo-wide acquisition graph even
//                   though no LockGuard is visible at the call site. Bodies
//                   with a literal util::LockGuard are summarized
//                   automatically; the marker is for acquisitions at_lint
//                   cannot see (std primitives, opaque callees, platform
//                   calls).
//
//   AT_UNTRUSTED    on a function definition or declaration (suffix
//                   position): this function is an ingestion boundary —
//                   its parameters and its return value carry bytes an
//                   attacker controls (Zeek log lines, honeypot payloads,
//                   replay corpora). at_lint seeds its interprocedural
//                   taint analysis here: values flowing out of an
//                   AT_UNTRUSTED function must pass a bounds check or an
//                   AT_SANITIZES hop before reaching an allocation size,
//                   array index, file path, format string (taint-to-sink)
//                   or an unbounded member container (unbounded-growth).
//
//   AT_SANITIZES    on a function definition or declaration (suffix
//                   position): this function validates its input and its
//                   return value is safe downstream — a parser that
//                   rejects malformed input (util::parse_num, Ipv4::parse)
//                   or a normalizer that clamps ranges. Taint does not
//                   propagate through its return value.
//
//   AT_BOUNDED      after a member container declaration (same line or
//                   trailing position): the container's growth is bounded
//                   by construction — a fixed-capacity ring, an LRU with
//                   eviction elsewhere, a checkpoint-truncated journal.
//                   Exempts the field from unbounded-growth. Always pair
//                   with a comment naming the bound.
//
// Contrast with the Clang -Wthread-safety macros (annotated_mutex.hpp):
// AT_ACQUIRE/AT_RELEASE describe functions that *leave* a capability held
// or released across the call boundary; AT_ACQUIRES describes a
// self-contained acquire/release pair invisible to the caller.

#define AT_HOT
#define AT_ACQUIRES(...)
#define AT_UNTRUSTED
#define AT_SANITIZES
#define AT_BOUNDED
