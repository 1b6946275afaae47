#include "mem/paging/replacement.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "util/directory.hpp"

namespace vmsls::paging {

const char* policy_name(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kClock: return "clock";
    case PolicyKind::kLruApprox: return "lru";
    case PolicyKind::kFifo: return "fifo";
    case PolicyKind::kRandom: return "random";
  }
  return "?";
}

PolicyKind parse_policy(const std::string& name) {
  if (name == "clock") return PolicyKind::kClock;
  if (name == "lru") return PolicyKind::kLruApprox;
  if (name == "fifo") return PolicyKind::kFifo;
  if (name == "random") return PolicyKind::kRandom;
  throw std::invalid_argument("unknown replacement policy '" + name + "'");
}

namespace {

/// Second-chance clock: resident pages form a ring; the hand sweeps,
/// clearing accessed bits, and evicts the first page found unreferenced.
///
/// The ring is a circular doubly-linked list threaded through a node
/// vector (freed nodes are recycled), and a Directory maps each key to its
/// node, so insert and remove are O(1) with no hashing and, once the ring
/// has reached its peak size, no allocation. Keys are page or frame
/// numbers, which the directory stores densely. Nomination order is the
/// ring's circular order from the hand.
class ClockPolicy final : public ReplacementPolicy {
 public:
  explicit ClockPolicy(AccessedProbe probe) : probe_(std::move(probe)) {}

  const char* name() const noexcept override { return "clock"; }
  u64 tracked_pages() const noexcept override { return size_; }

  void on_insert(u64 key) override {
    u32 n;
    if (!free_.empty()) {
      n = free_.back();
      free_.pop_back();
    } else {
      n = static_cast<u32>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[n].key = key;
    pos_.at(key) = n + 1;
    // New pages enter just behind the hand: they get a full sweep before
    // first consideration. (Into an empty ring the new page IS the hand.)
    if (size_++ == 0) {
      nodes_[n].prev = nodes_[n].next = n;
      hand_ = n;
    } else {
      const u32 before = nodes_[hand_].prev;
      nodes_[n].prev = before;
      nodes_[n].next = hand_;
      nodes_[before].next = n;
      nodes_[hand_].prev = n;
    }
  }

  void on_remove(u64 key) override {
    u32* slot = pos_.find(key);
    if (slot == nullptr || *slot == 0) return;
    const u32 n = *slot - 1;
    *slot = 0;
    // The page the hand nominated: the hand moves on to its successor.
    if (n == hand_) hand_ = nodes_[n].next;
    nodes_[nodes_[n].prev].next = nodes_[n].next;
    nodes_[nodes_[n].next].prev = nodes_[n].prev;
    free_.push_back(n);
    --size_;
  }

  std::optional<u64> pick_victim() override {
    if (size_ == 0) return std::nullopt;
    // Wrong-path prefetches go first: a speculative page is reclaimed
    // before the hand disturbs anyone else's accessed bits — but only if
    // its own bit is still clear. Probing a *referenced* landing graduates
    // it through the owner's funnel (it stops being speculative), exactly
    // as a sweep would. Scan order: from the hand, the sweep's own order.
    // The owner's emptiness hint skips the whole scan when nothing is
    // speculative — the common case whenever readahead is off.
    if (maybe_speculative()) {
      u32 it = hand_;
      for (u64 step = 0; step < size_; ++step) {
        const u64 key = nodes_[it].key;
        if (is_speculative(key) && !is_pinned(key) && !probe_(key)) return key;
        it = nodes_[it].next;
      }
    }
    // At most two sweeps: the first clears every accessed bit, the second
    // must find a victim. Pinned pages behave as permanently referenced
    // (their accessed bits are left alone).
    for (u64 step = 0; step < 2 * size_; ++step) {
      const u64 key = nodes_[hand_].key;
      if (!is_pinned(key) && !probe_(key)) return key;
      hand_ = nodes_[hand_].next;
    }
    // Everything stayed referenced: take the first unpinned page at the
    // hand; only pins can make victim selection fail entirely.
    u32 it = hand_;
    for (u64 step = 0; step < size_; ++step) {
      const u64 key = nodes_[it].key;
      if (!is_pinned(key)) return key;
      it = nodes_[it].next;
    }
    return std::nullopt;
  }

 private:
  struct Node {
    u64 key = 0;
    u32 prev = 0;
    u32 next = 0;
  };

  AccessedProbe probe_;
  std::vector<Node> nodes_;
  std::vector<u32> free_;  // recycled node indices
  Directory<u32> pos_;     // key -> node index + 1; 0 = not tracked
  u32 hand_ = 0;
  u64 size_ = 0;
};

/// Aging LRU approximation: an 8-bit reference history per page, shifted on
/// every victim selection with the accessed bit entering at the top. The
/// smallest history value is the least recently used page.
class LruApproxPolicy final : public ReplacementPolicy {
 public:
  explicit LruApproxPolicy(AccessedProbe probe) : probe_(std::move(probe)) {}

  const char* name() const noexcept override { return "lru"; }
  u64 tracked_pages() const noexcept override { return ages_.size(); }

  void on_insert(u64 key) override { ages_[key] = 0x80; }
  void on_remove(u64 key) override { ages_.erase(key); }

  std::optional<u64> pick_victim() override {
    if (ages_.empty()) return std::nullopt;
    // Wrong-path prefetches first (lowest key — deterministic map order);
    // probing a referenced landing graduates it via the owner's funnel
    // without perturbing the aging histories. Skipped outright when the
    // owner's hint says nothing is speculative.
    if (maybe_speculative())
      for (const auto& [key, age] : ages_)
        if (is_speculative(key) && !is_pinned(key) && !probe_(key)) return key;
    std::optional<u64> victim;
    unsigned best_age = 256;
    for (auto& [key, age] : ages_) {
      const bool used = probe_(key);
      age = static_cast<u8>((age >> 1) | (used ? 0x80 : 0));
      if (is_pinned(key)) continue;  // aged but never nominated
      if (age < best_age) {  // ties resolve to the lowest key (map order)
        best_age = age;
        victim = key;
      }
    }
    return victim;
  }

 private:
  AccessedProbe probe_;
  std::map<u64, u8> ages_;  // ordered: deterministic sweep and tie-breaks
};

class FifoPolicy final : public ReplacementPolicy {
 public:
  explicit FifoPolicy(AccessedProbe probe) : probe_(std::move(probe)) {}

  const char* name() const noexcept override { return "fifo"; }
  u64 tracked_pages() const noexcept override { return queue_.size(); }

  void on_insert(u64 key) override { queue_.push_back(key); }

  void on_remove(u64 key) override {
    // Fast path: the pager evicts the head pick_victim just returned.
    if (!queue_.empty() && queue_.front() == key) {
      queue_.pop_front();
      return;
    }
    auto it = std::find(queue_.begin(), queue_.end(), key);
    if (it != queue_.end()) queue_.erase(it);
  }

  std::optional<u64> pick_victim() override {
    // Wrong-path prefetches first, in arrival order. The probe keeps FIFO
    // locality-blind for everything else; here it only tells a used
    // landing (graduated through the owner's funnel) from a wrong one.
    if (maybe_speculative())
      for (const u64 key : queue_)
        if (is_speculative(key) && !is_pinned(key) && !probe_(key)) return key;
    for (const u64 key : queue_)
      if (!is_pinned(key)) return key;
    return std::nullopt;
  }

 private:
  AccessedProbe probe_;
  std::deque<u64> queue_;
};

class RandomPolicy final : public ReplacementPolicy {
 public:
  RandomPolicy(AccessedProbe probe, u64 seed) : probe_(std::move(probe)), rng_(seed) {}

  const char* name() const noexcept override { return "random"; }
  u64 tracked_pages() const noexcept override { return pages_.size(); }

  void on_insert(u64 key) override { pages_.push_back(key); }

  void on_remove(u64 key) override {
    // Order carries no meaning here, so removal is swap-with-back; the
    // last nomination makes the pager's evict O(1).
    auto it = (last_pick_ < pages_.size() && pages_[last_pick_] == key)
                  ? pages_.begin() + static_cast<std::ptrdiff_t>(last_pick_)
                  : std::find(pages_.begin(), pages_.end(), key);
    if (it == pages_.end()) return;
    *it = pages_.back();
    pages_.pop_back();
  }

  std::optional<u64> pick_victim() override {
    if (pages_.empty()) return std::nullopt;
    // Wrong-path prefetches first, in insertion order; the RNG is not
    // consumed so runs with and without prefetch hits stay comparable.
    if (maybe_speculative()) {
      for (u64 idx = 0; idx < pages_.size(); ++idx) {
        if (is_speculative(pages_[idx]) && !is_pinned(pages_[idx]) && !probe_(pages_[idx])) {
          last_pick_ = idx;
          return pages_[idx];
        }
      }
    }
    // One draw, then a deterministic forward scan past any pinned pages.
    const u64 start = rng_.below(pages_.size());
    for (u64 step = 0; step < pages_.size(); ++step) {
      const u64 idx = (start + step) % pages_.size();
      if (!is_pinned(pages_[idx])) {
        last_pick_ = idx;
        return pages_[idx];
      }
    }
    return std::nullopt;
  }

 private:
  AccessedProbe probe_;
  Rng rng_;
  std::vector<u64> pages_;
  u64 last_pick_ = 0;
};

}  // namespace

std::unique_ptr<ReplacementPolicy> make_policy(PolicyKind kind, AccessedProbe probe, u64 seed) {
  switch (kind) {
    case PolicyKind::kClock: return std::make_unique<ClockPolicy>(std::move(probe));
    case PolicyKind::kLruApprox: return std::make_unique<LruApproxPolicy>(std::move(probe));
    case PolicyKind::kFifo: return std::make_unique<FifoPolicy>(std::move(probe));
    case PolicyKind::kRandom: return std::make_unique<RandomPolicy>(std::move(probe), seed);
  }
  throw std::invalid_argument("unknown replacement policy kind");
}

}  // namespace vmsls::paging
