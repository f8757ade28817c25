// FIFO of packets in one power-of-two ring buffer.
//
// The egress queue disciplines keep their FIFOs here. The ring doubles
// when full and never shrinks, so once a queue has reached its peak depth
// its pushes and pops make no heap call (a std::deque<Packet> frees and
// re-allocates a block every four packets; DESIGN.md §10). A cell holds a
// constructed Packet only while it is queued, so growing writes no more
// than the queue holds. pop_front() moves the packet out, so no payload
// reference stays behind: a buffer shared with the sender (a GIOP
// fragment's CdrBufferPool block) is released by whoever takes the packet.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

#include "net/packet.hpp"

namespace aqm::net {

class PacketRing {
 public:
  PacketRing() = default;
  PacketRing(const PacketRing&) = delete;
  PacketRing& operator=(const PacketRing&) = delete;
  ~PacketRing() {
    for (std::size_t i = 0; i < size_; ++i) std::destroy_at(cell(i));
    if (cells_ != nullptr) std::allocator<Packet>().deallocate(cells_, capacity_);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push_back(Packet&& p) {
    if (size_ == capacity_) grow();
    std::construct_at(cell(size_), std::move(p));
    ++size_;
  }

  Packet pop_front() {
    assert(size_ > 0);
    Packet* front = cell(0);
    Packet p = std::move(*front);
    std::destroy_at(front);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    return p;
  }

 private:
  static constexpr std::size_t kMinCells = 16;

  /// The i-th queued packet's cell, counted from the head.
  [[nodiscard]] Packet* cell(std::size_t i) const {
    return cells_ + ((head_ + i) & (capacity_ - 1));
  }

  /// Doubles the ring, unwrapping the queued packets to the front.
  void grow() {
    const std::size_t capacity = capacity_ == 0 ? kMinCells : capacity_ * 2;
    Packet* cells = std::allocator<Packet>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      std::construct_at(cells + i, std::move(*cell(i)));
      std::destroy_at(cell(i));
    }
    if (cells_ != nullptr) std::allocator<Packet>().deallocate(cells_, capacity_);
    cells_ = cells;
    capacity_ = capacity;
    head_ = 0;
  }

  Packet* cells_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace aqm::net
