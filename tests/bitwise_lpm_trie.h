// The classic one-bit-per-node binary trie that util::LpmTrie replaced,
// kept as the reference oracle: tests/lpm_diff_test.cc differential-tests
// LpmTrie against it over randomized prefix sets. Same longest-prefix
// semantics, one node hop per prefix bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace srv6bpf::oracle {

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

}  // namespace srv6bpf::oracle
