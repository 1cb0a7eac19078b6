#include "bhr/lpm_trie.hpp"

#include <algorithm>

namespace at::bhr {

namespace {
constexpr std::uint32_t i1_of(std::uint32_t ip) noexcept { return ip >> 16; }
constexpr std::uint32_t i2_of(std::uint32_t ip) noexcept { return (ip >> 8) & 0xffu; }
constexpr std::uint32_t i3_of(std::uint32_t ip) noexcept { return ip & 0xffu; }
}  // namespace

LpmTrie::LpmTrie(util::EpochDomain* domain)
    : domain_(domain != nullptr ? domain : &util::EpochDomain::global()),
      root_(std::make_unique<std::atomic<std::uintptr_t>[]>(kRootSlots)) {}

LpmTrie::~LpmTrie() {
  // Destruction implies quiescence: no reader holds a guard, so the
  // structure is freed directly instead of going through the limbo list.
  for (std::size_t i1 = 0; i1 < kRootSlots; ++i1) {
    const std::uintptr_t v1 = root_[i1].load(std::memory_order_relaxed);
    if (!is_ptr(v1)) continue;
    Node* node = reinterpret_cast<Node*>(v1);
    for (std::size_t i2 = 0; i2 < kFan; ++i2) {
      const std::uintptr_t v2 = node->slot[i2].load(std::memory_order_relaxed);
      // at_lint: allow(raw-new-delete) — trie nodes are slab-free RCU cells;
      // ownership is the parent slot, freed here at quiescent teardown.
      if (is_ptr(v2)) delete reinterpret_cast<Leaf*>(v2);
    }
    // at_lint: allow(raw-new-delete) — see leaf deletion above.
    delete node;
  }
  // Earlier retirements may still sit in the shared domain's limbo list;
  // their deleters are self-contained, so flushing here is best-effort.
  domain_->flush();
}

void LpmTrie::delete_node_cb(void* p) noexcept {
  // at_lint: allow(raw-new-delete) — epoch-domain deleter for RCU-retired nodes.
  delete static_cast<Node*>(p);
}

void LpmTrie::delete_leaf_cb(void* p) noexcept {
  // at_lint: allow(raw-new-delete) — epoch-domain deleter for RCU-retired leaves.
  delete static_cast<Leaf*>(p);
}

// --- read side -------------------------------------------------------------

bool LpmTrie::lookup(std::uint32_t ip, util::SimTime now) const {
  const std::uintptr_t v1 = root_[i1_of(ip)].load(std::memory_order_acquire);
  if (v1 == kEmpty) return false;
  if (is_cover(v1)) return cover_blocked(v1, now);
  const Node* node = reinterpret_cast<const Node*>(v1);
  const std::uintptr_t v2 = node->slot[i2_of(ip)].load(std::memory_order_acquire);
  if (v2 == kEmpty) return false;
  if (is_cover(v2)) return cover_blocked(v2, now);
  const Leaf* leaf = reinterpret_cast<const Leaf*>(v2);
  const std::uint64_t e = leaf->expiry[i3_of(ip)].load(std::memory_order_relaxed);
  return word_blocked(e, now);
}

void LpmTrie::lookup_batch(const std::uint32_t* ips, const util::SimTime* times,
                           std::uint8_t* out, std::size_t n) const {
  // Resolve probes level-by-level in chunks: each pass issues the
  // prefetches for every in-flight descent before any dependent load, so
  // the (up to) three cache misses of independent descents overlap instead
  // of serializing.
  //
  // The passes are branchless on probe data — a realistic mix (misses,
  // cover hits, host words) makes any per-probe branch a coin flip, and
  // the mispredicts cost more than the work they skip. Probes that
  // terminate early are steered into L1-hot dummy tables (all-empty
  // node/leaf) via cmov-friendly selects and keep marching; the final
  // select picks the deepest meaningful value.
  static const Node dummy_node;
  static const Leaf dummy_leaf;
  // Normalize a non-pointer slot to an expiry word: empty -> 0, permanent
  // cover -> kPermanent, TTL cover -> its expiry. (Garbage for pointer
  // slots; selected away below.)
  const auto slot_word = [](std::uintptr_t v) noexcept {
    return (v & 3u) == 1u ? kPermanent : static_cast<std::uint64_t>(v >> 2);
  };
  constexpr std::size_t kChunk = 32;
  std::array<std::uintptr_t, kChunk> v1;
  std::array<std::uintptr_t, kChunk> v2;
  std::array<const Node*, kChunk> node;
  std::array<const Leaf*, kChunk> leaf;
  for (std::size_t at = 0; at < n; at += kChunk) {
    const std::size_t m = std::min(kChunk, n - at);
    const std::uint32_t* ip = ips + at;
    const util::SimTime* ts = times + at;
    std::uint8_t* res = out + at;
    for (std::size_t i = 0; i < m; ++i) {
      __builtin_prefetch(&root_[i1_of(ip[i])]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      v1[i] = root_[i1_of(ip[i])].load(std::memory_order_acquire);
      node[i] = is_ptr(v1[i]) ? reinterpret_cast<const Node*>(v1[i]) : &dummy_node;
      __builtin_prefetch(&node[i]->slot[i2_of(ip[i])]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      v2[i] = node[i]->slot[i2_of(ip[i])].load(std::memory_order_acquire);
      leaf[i] = is_ptr(v2[i]) ? reinterpret_cast<const Leaf*>(v2[i]) : &dummy_leaf;
      __builtin_prefetch(&leaf[i]->expiry[i3_of(ip[i])]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t e3 = leaf[i]->expiry[i3_of(ip[i])].load(std::memory_order_relaxed);
      const std::uint64_t deep = is_ptr(v2[i]) ? e3 : slot_word(v2[i]);
      const std::uint64_t w = is_ptr(v1[i]) ? deep : slot_word(v1[i]);
      res[i] = word_blocked(w, ts[i]) ? 1 : 0;
    }
  }
}

// --- write-side structure helpers ------------------------------------------

LpmTrie::Node* LpmTrie::ensure_node(std::uint32_t i1) {
  const std::uintptr_t v = root_[i1].load(std::memory_order_relaxed);
  if (is_ptr(v)) return reinterpret_cast<Node*>(v);
  // at_lint: allow(raw-new-delete) — RCU cell, freed via epoch retire/teardown.
  Node* node = new Node();
  if (is_cover(v)) {
    // Expand the cover: the new node is 256 copies of it, one level down.
    for (auto& s : node->slot) s.store(v, std::memory_order_relaxed);
    node->nonempty = static_cast<std::uint16_t>(kFan);
    node->covered_perm = v == kPermCover ? static_cast<std::uint16_t>(kFan) : 0;
    covers_ += kFan - 1;
  }
  root_[i1].store(reinterpret_cast<std::uintptr_t>(node), std::memory_order_release);
  ++l2_nodes_;
  return node;
}

LpmTrie::Leaf* LpmTrie::ensure_leaf(Node& node, std::uint32_t i2) {
  const std::uintptr_t v = node.slot[i2].load(std::memory_order_relaxed);
  if (is_ptr(v)) return reinterpret_cast<Leaf*>(v);
  // at_lint: allow(raw-new-delete) — RCU cell, freed via epoch retire/teardown.
  Leaf* leaf = new Leaf();
  if (is_cover(v)) {
    const std::uint64_t enc = cover_enc(v);
    for (auto& w : leaf->expiry) w.store(enc, std::memory_order_relaxed);
    leaf->blocked = static_cast<std::uint16_t>(kFan);
    leaf->permanent = enc == kPermanent ? static_cast<std::uint16_t>(kFan) : 0;
    if (v == kPermCover) --node.covered_perm;
    --covers_;
    host_entries_ += kFan;
  } else {
    ++node.nonempty;
  }
  node.slot[i2].store(reinterpret_cast<std::uintptr_t>(leaf), std::memory_order_release);
  ++leaves_;
  return leaf;
}

std::uint64_t LpmTrie::leaf_set(Leaf& leaf, std::uint32_t i3, std::uint64_t enc) {
  const std::uint64_t old = leaf.expiry[i3].load(std::memory_order_relaxed);
  if (old == enc) return old;
  leaf.expiry[i3].store(enc, std::memory_order_release);
  if (old == 0) {
    ++leaf.blocked;
    ++host_entries_;
  } else if (enc == 0) {
    --leaf.blocked;
    --host_entries_;
  }
  if (old == kPermanent) --leaf.permanent;
  if (enc == kPermanent) ++leaf.permanent;
  return old;
}

void LpmTrie::maybe_collapse_leaf(Node& node, std::uint32_t i1, std::uint32_t i2,
                                  Leaf* leaf, MutationReport* report) {
  if (leaf->permanent < kFan) return;
  if (report != nullptr) {
    report->covers_added.emplace_back(net::Ipv4((i1 << 16) | (i2 << 8)), 24u);
  }
  host_entries_ -= leaf->blocked;
  --leaves_;
  ++covers_;
  node.slot[i2].store(kPermCover, std::memory_order_release);
  ++node.covered_perm;
  retire_leaf(leaf);
  maybe_collapse_node(i1, &node, report);
}

void LpmTrie::maybe_collapse_node(std::uint32_t i1, Node* node,
                                  MutationReport* report) {
  // Collapsing a /16 requires every slot to be a *permanent* cover — TTL
  // covers carry distinct deadlines and cannot merge losslessly.
  if (node->covered_perm < kFan) return;
  root_[i1].store(kPermCover, std::memory_order_release);
  covers_ -= kFan - 1;
  --l2_nodes_;
  retire_node_only(node);
  if (report != nullptr) {
    report->covers_added.emplace_back(net::Ipv4(i1 << 16), 16u);
  }
}

void LpmTrie::prune_leaf(Node& node, std::uint32_t i2, Leaf* leaf) {
  node.slot[i2].store(kEmpty, std::memory_order_release);
  --node.nonempty;
  --leaves_;
  retire_leaf(leaf);
}

void LpmTrie::prune_node(std::uint32_t i1, Node* node) {
  root_[i1].store(kEmpty, std::memory_order_release);
  --l2_nodes_;
  retire_node_only(node);
}

void LpmTrie::retire_leaf(Leaf* leaf) { domain_->retire(leaf, &delete_leaf_cb); }

void LpmTrie::retire_node_only(Node* node) { domain_->retire(node, &delete_node_cb); }

void LpmTrie::retire_subtree(Node* node) {
  for (std::size_t i2 = 0; i2 < kFan; ++i2) {
    const std::uintptr_t v = node->slot[i2].load(std::memory_order_relaxed);
    if (is_ptr(v)) {
      Leaf* leaf = reinterpret_cast<Leaf*>(v);
      host_entries_ -= leaf->blocked;
      --leaves_;
      retire_leaf(leaf);
    } else if (is_cover(v)) {
      --covers_;
    }
  }
  --l2_nodes_;
  retire_node_only(node);
}

// --- write-side operations --------------------------------------------------

bool LpmTrie::set_host(std::uint32_t ip, std::uint64_t enc, MutationReport* report) {
  util::LockGuard lock(write_mu_);
  return set_host_locked(ip, enc, report);
}

bool LpmTrie::set_host_locked(std::uint32_t ip, std::uint64_t enc,
                              MutationReport* report) {
  const std::uint32_t i1 = i1_of(ip);
  if (enc == 0 && root_[i1].load(std::memory_order_relaxed) == kEmpty) return false;
  Node* node = ensure_node(i1);
  const std::uint32_t i2 = i2_of(ip);
  if (enc == 0 && node->slot[i2].load(std::memory_order_relaxed) == kEmpty) {
    return false;
  }
  Leaf* leaf = ensure_leaf(*node, i2);
  const std::uint64_t old = leaf_set(*leaf, i3_of(ip), enc);
  if (old == enc) return false;
  if (enc == 0) {
    if (leaf->blocked == 0) {
      prune_leaf(*node, i2, leaf);
      if (node->nonempty == 0) prune_node(i1, node);
    }
  } else if (enc == kPermanent) {
    maybe_collapse_leaf(*node, i1, i2, leaf, report);
  }
  return true;
}

bool LpmTrie::set_prefix(const net::Cidr& cidr, std::uint64_t enc,
                         MutationReport* report) {
  util::LockGuard lock(write_mu_);
  const unsigned len = cidr.prefix_len();
  const std::uint32_t base = cidr.base().value();
  if (len == 32) return set_host_locked(base, enc, report);

  bool changed = false;
  if (len <= 16) {
    const std::uint32_t count = 1u << (16 - len);
    const std::uint32_t start = base >> 16;
    const std::uintptr_t target = enc == 0 ? kEmpty : encode_cover(enc);
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t i1 = start + k;
      const std::uintptr_t v = root_[i1].load(std::memory_order_relaxed);
      if (v == target) continue;
      if (is_cover(v)) --covers_;
      if (target != kEmpty) ++covers_;
      // Unlink before retiring: retire() may advance the epoch, and a reader
      // pinned after that advance must no longer reach the old subtree.
      root_[i1].store(target, std::memory_order_release);
      if (is_ptr(v)) retire_subtree(reinterpret_cast<Node*>(v));
      changed = true;
    }
    return changed;
  }

  const std::uint32_t i1 = base >> 16;
  {
    const std::uintptr_t v1 = root_[i1].load(std::memory_order_relaxed);
    if (v1 == kEmpty && enc == 0) return false;
    if (enc != 0 && is_cover(v1) && v1 == encode_cover(enc)) return false;
  }
  Node* node = ensure_node(i1);

  if (len <= 24) {
    const std::uint32_t count = 1u << (24 - len);
    const std::uint32_t start = (base >> 8) & 0xffu;
    const std::uintptr_t target = enc == 0 ? kEmpty : encode_cover(enc);
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t i2 = start + k;
      const std::uintptr_t v = node->slot[i2].load(std::memory_order_relaxed);
      if (v == target) continue;
      if (is_ptr(v)) {
        host_entries_ -= reinterpret_cast<Leaf*>(v)->blocked;
        --leaves_;
      } else if (is_cover(v)) {
        --covers_;
        if (v == kPermCover) --node->covered_perm;
      }
      // Unlink before retiring (see the /16 loop above).
      node->slot[i2].store(target, std::memory_order_release);
      if (is_ptr(v)) retire_leaf(reinterpret_cast<Leaf*>(v));
      if (v == kEmpty && target != kEmpty) ++node->nonempty;
      if (v != kEmpty && target == kEmpty) --node->nonempty;
      if (target != kEmpty) {
        ++covers_;
        if (target == kPermCover) ++node->covered_perm;
      }
      changed = true;
    }
    if (node->nonempty == 0) {
      prune_node(i1, node);
    } else if (enc == kPermanent) {
      maybe_collapse_node(i1, node, report);
    }
    return changed;
  }

  // 25..31-bit prefixes: a sub-range of one leaf.
  const std::uint32_t i2 = (base >> 8) & 0xffu;
  if (enc == 0 && node->slot[i2].load(std::memory_order_relaxed) == kEmpty) {
    return false;
  }
  Leaf* leaf = ensure_leaf(*node, i2);
  const std::uint32_t count = 1u << (32 - len);
  const std::uint32_t start = base & 0xffu;
  for (std::uint32_t k = 0; k < count; ++k) {
    changed = leaf_set(*leaf, start + k, enc) != enc || changed;
  }
  if (enc == 0) {
    if (leaf->blocked == 0) {
      prune_leaf(*node, i2, leaf);
      if (node->nonempty == 0) prune_node(i1, node);
    }
  } else if (enc == kPermanent) {
    maybe_collapse_leaf(*node, i1, i2, leaf, report);
  }
  return changed;
}

bool LpmTrie::clear_matching(const net::Cidr& cidr, std::uint64_t enc) {
  if (enc == 0) return false;
  util::LockGuard lock(write_mu_);
  const std::uint32_t first = cidr.base().value();
  const std::uint32_t last = cidr.last().value();
  const std::uintptr_t cover = encode_cover(enc);
  bool changed = false;
  for (std::uint32_t i1 = first >> 16; i1 <= (last >> 16); ++i1) {
    std::uintptr_t v1 = root_[i1].load(std::memory_order_relaxed);
    if (v1 == kEmpty) continue;
    const std::uint32_t range_lo = std::max(first, i1 << 16);
    const std::uint32_t range_hi = std::min(last, (i1 << 16) | 0xffffu);
    const bool whole16 =
        range_lo == (i1 << 16) && range_hi == ((i1 << 16) | 0xffffu);
    if (is_cover(v1)) {
      if (v1 != cover) continue;  // superseded by a different block
      if (whole16) {
        root_[i1].store(kEmpty, std::memory_order_release);
        --covers_;
        changed = true;
        continue;
      }
      // Partial clear of a matching cover: expand, then walk the range.
      ensure_node(i1);
      v1 = root_[i1].load(std::memory_order_relaxed);
    }
    Node* node = reinterpret_cast<Node*>(v1);
    for (std::uint32_t i2 = (range_lo >> 8) & 0xffu; i2 <= ((range_hi >> 8) & 0xffu);
         ++i2) {
      std::uintptr_t v2 = node->slot[i2].load(std::memory_order_relaxed);
      if (v2 == kEmpty) continue;
      const std::uint32_t sub_lo = std::max(range_lo, (i1 << 16) | (i2 << 8));
      const std::uint32_t sub_hi = std::min(range_hi, (i1 << 16) | (i2 << 8) | 0xffu);
      const bool whole24 = (sub_lo & 0xffu) == 0 && (sub_hi & 0xffu) == 0xffu;
      if (is_cover(v2)) {
        if (v2 != cover) continue;
        if (whole24) {
          node->slot[i2].store(kEmpty, std::memory_order_release);
          --covers_;
          --node->nonempty;
          if (v2 == kPermCover) --node->covered_perm;
          changed = true;
          continue;
        }
        ensure_leaf(*node, i2);
        v2 = node->slot[i2].load(std::memory_order_relaxed);
      }
      Leaf* leaf = reinterpret_cast<Leaf*>(v2);
      for (std::uint32_t i3 = sub_lo & 0xffu; i3 <= (sub_hi & 0xffu); ++i3) {
        if (leaf->expiry[i3].load(std::memory_order_relaxed) == enc) {
          leaf_set(*leaf, i3, 0);
          changed = true;
        }
      }
      if (leaf->blocked == 0) prune_leaf(*node, i2, leaf);
    }
    if (node->nonempty == 0) prune_node(i1, node);
  }
  return changed;
}

LpmTrie::TrieStats LpmTrie::stats() const {
  util::LockGuard lock(write_mu_);
  TrieStats s;
  s.l2_nodes = l2_nodes_;
  s.leaves = leaves_;
  s.host_entries = host_entries_;
  s.covers = covers_;
  s.bytes = kRootSlots * sizeof(std::atomic<std::uintptr_t>) +
            l2_nodes_ * sizeof(Node) + leaves_ * sizeof(Leaf);
  return s;
}

}  // namespace at::bhr
