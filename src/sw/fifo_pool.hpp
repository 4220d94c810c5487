#pragma once
// A fixed set of FIFO queues over one shared slab of nodes. Each queue
// is a singly linked list threaded through the slab by u32 indices,
// with a head, tail and size per queue; popped nodes go on a free list
// and the next push reuses them. An empty queue costs 12 bytes, where an
// empty std::deque costs about 600, so the single-stage engines can keep
// one queue per (input, output) pair at the paper's 2048 ports. The slab
// grows to the largest number of elements queued at once and never
// shrinks.
//
// Snapshots hold logical contents only (DESIGN.md §10): a queue is
// written exactly as a std::deque — a u64 count, then its elements front
// to back — so the osmosis.ckpt.v1 bytes do not depend on where the
// elements sit in the slab.
//
// `Alloc` places the slab; a pool whose queues have no bound can take
// util::MappedAllocator so a slab of megabytes never passes through
// malloc.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/ckpt/archive.hpp"
#include "src/util/log.hpp"

namespace osmosis::sw {

template <class T, class Alloc = std::allocator<T>>
class FifoPool {
 public:
  explicit FifoPool(std::size_t queues = 0) : queues_(queues) {}

  std::size_t queues() const { return queues_.size(); }
  std::size_t size(std::size_t q) const { return checked(q).size; }
  bool empty(std::size_t q) const { return checked(q).size == 0; }
  /// Elements queued over all queues.
  std::size_t total() const { return live_; }
  /// Slab nodes allocated: the most elements ever queued at once.
  std::size_t capacity() const { return slab_.size(); }

  void push_back(std::size_t q, const T& v) {
    Queue& qu = checked(q);
    std::uint32_t i = free_;
    if (i != kNil) {
      free_ = slab_[i].next;
      slab_[i] = Node{v, kNil};
    } else {
      OSMOSIS_REQUIRE(slab_.size() < kNil, "FIFO pool slab exhausted");
      i = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(Node{v, kNil});
    }
    if (qu.size == 0)
      qu.head = i;
    else
      slab_[qu.tail].next = i;
    qu.tail = i;
    ++qu.size;
    ++live_;
  }

  const T& front(std::size_t q) const {
    const Queue& qu = checked(q);
    OSMOSIS_REQUIRE(qu.size > 0, "front() on empty FIFO " << q);
    return slab_[qu.head].value;
  }

  T pop_front(std::size_t q) {
    Queue& qu = checked(q);
    OSMOSIS_REQUIRE(qu.size > 0, "pop_front() on empty FIFO " << q);
    const std::uint32_t i = qu.head;
    Node& node = slab_[i];
    T v = std::move(node.value);
    qu.head = node.next;  // kNil once the last element leaves
    --qu.size;
    node.next = free_;
    free_ = i;
    --live_;
    return v;
  }

  /// Empties every queue and releases the slab.
  void clear() {
    slab_.clear();
    free_ = kNil;
    live_ = 0;
    for (Queue& qu : queues_) qu = Queue{};
  }

  /// One queue in std::deque wire shape. Loading replaces its contents.
  template <class Ar>
  void io_queue(Ar& a, std::size_t q) {
    if constexpr (Ar::kLoading) {
      while (!empty(q)) pop_front(q);
      const std::uint64_t n = ckpt::detail::load_count(a);
      for (std::uint64_t k = 0; k < n; ++k) {
        T e{};
        ckpt::field(a, e);
        push_back(q, e);
      }
    } else {
      std::uint64_t n = size(q);
      a.raw(&n, sizeof n);
      for (std::uint32_t i = checked(q).head; i != kNil; i = slab_[i].next)
        ckpt::field(a, slab_[i].value);
    }
  }

  /// Every queue in std::vector<std::deque<T>> wire shape. Loading
  /// requires the snapshot's queue count to match this pool's.
  template <class Ar>
  void io_state(Ar& a) {
    std::uint64_t n = queues_.size();
    if constexpr (Ar::kLoading) {
      n = ckpt::detail::load_count(a);
      if (n != queues_.size())
        throw ckpt::Error("FIFO pool queue count mismatch in checkpoint");
      clear();
    } else {
      a.raw(&n, sizeof n);
    }
    for (std::size_t q = 0; q < queues_.size(); ++q) io_queue(a, q);
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFF'FFFFu;

  struct Node {
    T value;
    std::uint32_t next;
  };
  struct Queue {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t size = 0;
  };

  Queue& checked(std::size_t q) {
    OSMOSIS_REQUIRE(q < queues_.size(), "FIFO index " << q << " out of range");
    return queues_[q];
  }
  const Queue& checked(std::size_t q) const {
    OSMOSIS_REQUIRE(q < queues_.size(), "FIFO index " << q << " out of range");
    return queues_[q];
  }

  std::vector<Node, typename std::allocator_traits<
                        Alloc>::template rebind_alloc<Node>>
      slab_;
  std::vector<Queue> queues_;
  std::uint32_t free_ = kNil;  // head of the free-node list
  std::size_t live_ = 0;
};

}  // namespace osmosis::sw
