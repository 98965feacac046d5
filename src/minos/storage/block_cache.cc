#include "minos/storage/block_cache.h"

#include <algorithm>

namespace minos::storage {

BlockCache::BlockCache(size_t capacity_blocks,
                       obs::MetricsRegistry* registry, size_t stripes)
    : capacity_(capacity_blocks),
      shards_(std::max<size_t>(stripes, 1)) {
  // Split the budget evenly; remainder blocks go to the low stripes so
  // the total always equals `capacity_blocks`.
  const size_t n = shards_.size();
  for (size_t i = 0; i < n; ++i) {
    shards_[i].capacity = capacity_blocks / n + (i < capacity_blocks % n);
  }
  obs::MetricsRegistry& reg =
      registry != nullptr ? *registry : obs::MetricsRegistry::Default();
  const std::string scope = reg.MakeScope("block_cache");
  hits_ = reg.counter(scope + ".hits");
  misses_ = reg.counter(scope + ".misses");
  evictions_ = reg.counter(scope + ".evictions");
}

void BlockCache::Shard::Unlink(size_t f) {
  const Frame& frame = frames[f];
  (frame.prev == kNone ? head : frames[frame.prev].next) = frame.next;
  (frame.next == kNone ? tail : frames[frame.next].prev) = frame.prev;
}

void BlockCache::Shard::PushFront(size_t f) {
  frames[f].prev = kNone;
  frames[f].next = head;
  (head == kNone ? tail : frames[head].prev) = f;
  head = f;
}

void BlockCache::Shard::MoveToFront(size_t f) {
  if (f == head) return;
  Unlink(f);
  PushFront(f);
}

const BlockCache::Frame* BlockCache::Touch(Shard& s, uint64_t block) {
  auto it = s.map.find(block);
  if (it == s.map.end()) {
    misses_->Increment();
    return nullptr;
  }
  hits_->Increment();
  s.MoveToFront(it->second);
  return &s.frames[it->second];
}

bool BlockCache::Lookup(uint64_t block, std::string* out) {
  Shard& s = ShardFor(block);
  std::lock_guard<std::mutex> lock(s.mu);
  const Frame* frame = Touch(s, block);
  if (frame == nullptr) return false;
  out->assign(frame->payload);
  return true;
}

bool BlockCache::AppendSlice(uint64_t block, size_t pos, size_t n,
                             std::string* out) {
  Shard& s = ShardFor(block);
  std::lock_guard<std::mutex> lock(s.mu);
  const Frame* frame = Touch(s, block);
  if (frame == nullptr) return false;
  out->append(frame->payload, pos, n);
  return true;
}

void BlockCache::Insert(uint64_t block, std::string_view payload) {
  if (capacity_ == 0) return;
  Shard& s = ShardFor(block);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(block);
  if (it != s.map.end()) {
    s.frames[it->second].payload.assign(payload);
    s.MoveToFront(it->second);
    return;
  }
  if (s.capacity == 0) {
    // A stripe without room evicts the block it was handed at once.
    evictions_->Increment();
    return;
  }
  size_t f = kNone;
  if (s.map.size() == s.capacity) {
    // Full: the least recently used frame and its map node take the new
    // block.
    f = s.tail;
    s.Unlink(f);
    auto node = s.map.extract(s.frames[f].block);
    node.key() = block;
    s.map.insert(std::move(node));
    evictions_->Increment();
  } else {
    if (s.spare.empty()) {
      f = s.frames.size();
      s.frames.emplace_back();
    } else {
      f = s.spare.back();
      s.spare.pop_back();
    }
    s.map.emplace(block, f);
  }
  s.frames[f].block = block;
  s.frames[f].payload.assign(payload);
  s.PushFront(f);
}

void BlockCache::Erase(uint64_t block) {
  Shard& s = ShardFor(block);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(block);
  if (it == s.map.end()) return;
  s.Unlink(it->second);
  s.spare.push_back(it->second);
  s.map.erase(it);
}

void BlockCache::Clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.frames.clear();
    s.spare.clear();
    s.map.clear();
    s.head = s.tail = kNone;
  }
}

size_t BlockCache::size() const {
  size_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.map.size();
  }
  return total;
}

double BlockCache::HitRate() const {
  const uint64_t total = hits() + misses();
  return total == 0 ? 0.0 : static_cast<double>(hits()) / total;
}

}  // namespace minos::storage
