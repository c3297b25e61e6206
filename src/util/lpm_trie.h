// Multibit-stride longest-prefix-match trie — the shared LPM engine behind
// seg6::Fib route lookups and BPF_MAP_TYPE_LPM_TRIE (ebpf::LpmTrieMap).
//
// The trie consumes the key 8 bits at a time: each node is one byte level
// with a 256-way child array plus, per slot, the id of the best prefix
// *terminating at this node* whose expansion covers that slot. Prefix
// expansion happens at insert time: a prefix of length L lands in the node
// at depth (L-1)/8 and is fanned out over the 2^(8*(depth+1)-L) slots it
// covers, each slot keeping the longest covering local prefix (expansions of
// distinct same-length prefixes are disjoint, so there are never ties).
// A lookup is then a plain byte-indexed descent that remembers the last
// non-empty slot it passed — a /48 route costs 6 node hops instead of the
// 48 per-bit node hops of the classic binary trie, and a full 128-bit miss
// costs at most 16. Exact longest-prefix semantics are preserved
// (differential-tested against BitwiseLpmTrie below in tests/lpm_diff_test).
//
// Complexity (n = key bytes, 16 for IPv6):
//   lookup      O(n) node hops, worst case; typically ceil(plen/8) + 1
//   insert      O(plen/8) descent + O(2^(8 - plen%8)) slot expansion
//   erase       O(plen/8) descent + O(span * local prefixes) slot recompute
//   memory      one ~3.3 KB node per distinct populated byte level — the
//               classic multibit-stride trade: memory for lookup hops
//
// Thread/context model: none of this is synchronized. In the simulator every
// structure is driven from the single-threaded event loop; the multi-core
// Node's CpuContexts interleave on one thread and share the table read-only
// on the hot path (mutation happens at control-plane time). What IS
// per-context is the one-entry cache layered above the Fib (seg6::FibCacheSlot),
// which this engine deliberately knows nothing about.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

namespace srv6bpf::util {

namespace detail {

// Type-erased trie topology: nodes, slot expansion and entry-id allocation.
// Values live in the typed wrapper (LpmTrie<V>); the core only hands out
// dense ids (freed ids are reused) so the wrapper can use id-indexed stable
// storage. Out-of-line in lpm_trie.cc — everything here is value-type
// independent.
class LpmCore {
 public:
  // Sentinel id: "no entry".
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;

  // `key_bytes` fixes the key width (and max prefix length, key_bytes * 8).
  explicit LpmCore(std::uint32_t key_bytes);
  ~LpmCore();
  LpmCore(const LpmCore&) = delete;
  LpmCore& operator=(const LpmCore&) = delete;

  struct Ref {
    std::uint32_t id = kNoEntry;
    bool created = false;  // false: the exact prefix already existed
  };

  // Inserts prefix (key, plen) or finds the existing exact entry. Bits of
  // `key` beyond `plen` are ignored. Requires plen <= key_bytes * 8.
  Ref insert(const std::uint8_t* key, std::uint32_t plen);

  // Exact-prefix find (not LPM): id of the entry inserted with this same
  // (key, plen), or kNoEntry.
  std::uint32_t find_exact(const std::uint8_t* key, std::uint32_t plen) const;

  // Removes the exact prefix, recomputing the covered slots from the
  // remaining prefixes of its node and pruning nodes left with no local
  // prefixes and no children (nodes are ~3.3 KB — insert/erase churn must
  // not accrete them). Returns the freed id, or kNoEntry.
  std::uint32_t erase(const std::uint8_t* key, std::uint32_t plen);

  // Longest-prefix match over the full key_bytes key: id of the most
  // specific stored prefix covering `key`, or kNoEntry.
  std::uint32_t lookup(const std::uint8_t* key) const;

  std::size_t size() const noexcept { return size_; }
  std::uint32_t key_bytes() const noexcept { return key_bytes_; }
  std::uint32_t max_plen() const noexcept { return key_bytes_ * 8; }
  // Live trie nodes including the root — observability for the pruning
  // behaviour (an empty trie is exactly 1).
  std::size_t node_count() const noexcept { return node_count_; }
  void clear();

 private:
  // A prefix terminating at a node: `bits` significant high bits of `byte`
  // (1..8; 0 only for the zero-length prefix, which terminates at the root
  // and covers every slot).
  struct Local {
    std::uint8_t byte = 0;
    std::uint8_t bits = 0;
    std::uint32_t id = kNoEntry;
  };

  struct Node {
    std::unique_ptr<Node> child[256];
    // Per-slot: best covering local prefix (id + its bit count, for the
    // longest-wins comparison during expansion).
    std::uint32_t slot_id[256];
    std::uint8_t slot_bits[256];
    std::vector<Local> local;

    Node() {
      std::memset(slot_bits, 0, sizeof slot_bits);
      for (auto& s : slot_id) s = kNoEntry;
    }
  };

  static bool covers(const Local& l, std::uint8_t s) noexcept {
    return l.bits == 0 ||
           static_cast<std::uint8_t>((l.byte ^ s) >> (8 - l.bits)) == 0;
  }

  // Walks the full-byte levels of (key, plen); creates nodes when `create`.
  // On return *byte / *bits describe the terminal Local. nullptr when the
  // path is missing (and !create).
  Node* walk(const std::uint8_t* key, std::uint32_t plen, bool create,
             std::uint8_t* byte, std::uint8_t* bits) const;

  std::uint32_t key_bytes_;
  std::unique_ptr<Node> root_;
  std::vector<std::uint32_t> free_ids_;
  std::uint32_t next_id_ = 0;
  std::size_t size_ = 0;
  std::size_t node_count_ = 1;  // root
};

}  // namespace detail

// The typed multibit-stride LPM trie. V must be default-constructible and
// move-assignable; values have stable addresses for the lifetime of their
// entry (id-indexed deque), which is what lets ebpf::LpmTrieMap hand out
// kernel-style stable value pointers.
template <typename V>
class LpmTrie {
 public:
  explicit LpmTrie(std::uint32_t key_bytes = 16) : core_(key_bytes) {}

  // Finds the exact prefix or inserts a default-constructed value for it.
  // `created` reports which happened. Bits beyond `plen` are ignored.
  V* find_or_insert(const std::uint8_t* key, std::uint32_t plen,
                    bool& created) {
    const detail::LpmCore::Ref ref = core_.insert(key, plen);
    created = ref.created;
    if (ref.created) {
      if (ref.id >= values_.size()) values_.resize(ref.id + 1);
      values_[ref.id] = V{};  // reused ids start fresh
    }
    return &values_[ref.id];
  }

  // Exact-prefix find (not LPM); nullptr when absent.
  V* find_exact(const std::uint8_t* key, std::uint32_t plen) {
    const std::uint32_t id = core_.find_exact(key, plen);
    return id == detail::LpmCore::kNoEntry ? nullptr : &values_[id];
  }
  const V* find_exact(const std::uint8_t* key, std::uint32_t plen) const {
    return const_cast<LpmTrie*>(this)->find_exact(key, plen);
  }

  // Longest-prefix match over the full key; nullptr when no stored prefix
  // covers it. The returned pointer stays valid until the entry is erased
  // or the trie cleared/destroyed.
  V* lookup(const std::uint8_t* key) {
    const std::uint32_t id = core_.lookup(key);
    return id == detail::LpmCore::kNoEntry ? nullptr : &values_[id];
  }
  const V* lookup(const std::uint8_t* key) const {
    return const_cast<LpmTrie*>(this)->lookup(key);
  }

  // Removes the exact prefix; false when it was not present. When `erased`
  // is given, the removed value is moved into it.
  bool erase(const std::uint8_t* key, std::uint32_t plen,
             V* erased = nullptr) {
    const std::uint32_t id = core_.erase(key, plen);
    if (id == detail::LpmCore::kNoEntry) return false;
    if (erased != nullptr) *erased = std::move(values_[id]);
    values_[id] = V{};  // release the value's resources eagerly
    return true;
  }

  std::size_t size() const noexcept { return core_.size(); }
  std::uint32_t key_bytes() const noexcept { return core_.key_bytes(); }
  std::uint32_t max_plen() const noexcept { return core_.max_plen(); }
  std::size_t node_count() const noexcept { return core_.node_count(); }

  void clear() {
    core_.clear();
    values_.clear();
  }

 private:
  detail::LpmCore core_;
  std::deque<V> values_;  // id-indexed; deque growth never moves elements
};

// The classic one-bit-per-node binary trie this engine replaced, preserved
// as the reference oracle: tests/lpm_diff_test.cc differential-tests
// LpmTrie against it over randomized prefix sets, and bench/lpm_sweep.cc
// measures the speedup against it. Same semantics, one node hop per prefix
// bit.
template <typename V>
class BitwiseLpmTrie {
 public:
  explicit BitwiseLpmTrie(std::uint32_t key_bytes = 16)
      : key_bytes_(key_bytes) {}

  V* find_or_insert(const std::uint8_t* key, std::uint32_t plen,
                    bool& created) {
    Node* node = &root_;
    for (std::uint32_t i = 0; i < plen; ++i) {
      auto& child = node->child[bit_at(key, i)];
      if (!child) child = std::make_unique<Node>();
      node = child.get();
    }
    created = !node->value;
    if (created) {
      node->value = std::make_unique<V>();
      ++size_;
    }
    return node->value.get();
  }

  V* find_exact(const std::uint8_t* key, std::uint32_t plen) {
    Node* node = &root_;
    for (std::uint32_t i = 0; i < plen && node; ++i)
      node = node->child[bit_at(key, i)].get();
    return node ? node->value.get() : nullptr;
  }

  V* lookup(const std::uint8_t* key) {
    Node* node = &root_;
    V* best = root_.value.get();
    for (std::uint32_t i = 0; i < key_bytes_ * 8; ++i) {
      node = node->child[bit_at(key, i)].get();
      if (node == nullptr) break;
      if (node->value) best = node->value.get();
    }
    return best;
  }
  const V* lookup(const std::uint8_t* key) const {
    return const_cast<BitwiseLpmTrie*>(this)->lookup(key);
  }

  bool erase(const std::uint8_t* key, std::uint32_t plen) {
    Node* node = &root_;
    for (std::uint32_t i = 0; i < plen && node; ++i)
      node = node->child[bit_at(key, i)].get();
    if (node == nullptr || !node->value) return false;
    node->value.reset();
    --size_;
    return true;
  }

  std::size_t size() const noexcept { return size_; }

 private:
  struct Node {
    std::unique_ptr<Node> child[2];
    std::unique_ptr<V> value;  // null for intermediate nodes
  };
  static int bit_at(const std::uint8_t* key, std::uint32_t i) noexcept {
    return (key[i / 8] >> (7 - i % 8)) & 1;
  }

  std::uint32_t key_bytes_;
  Node root_;
  std::size_t size_ = 0;
};

}  // namespace srv6bpf::util
