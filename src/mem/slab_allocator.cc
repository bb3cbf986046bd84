#include "mem/slab_allocator.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/logging.h"

namespace dido {
namespace {

// Size-class spacing: each class's chunk is twice the previous one's.
constexpr size_t kGrowthFactor = 2;

}  // namespace

SlabAllocator::SlabAllocator(const Options& options)
    : options_(options), arena_(options.arena_bytes + kStaleReadSlackBytes) {
  DIDO_CHECK_GE(options_.page_bytes, options_.min_chunk_bytes);
  // Build size classes from min_chunk_bytes up to page_bytes.
  size_t chunk = options_.min_chunk_bytes;
  while (chunk <= options_.page_bytes) {
    SlabClass cls;
    cls.chunk_bytes = chunk;
    cls.chunks_per_page = options_.page_bytes / chunk;
    classes_.push_back(std::move(cls));
    chunk = std::max(chunk * kGrowthFactor, chunk + 8);
  }
  DIDO_CHECK_GT(classes_.size(), 0u);
}

SlabAllocator::~SlabAllocator() = default;

int SlabAllocator::ClassForSize(size_t footprint) const {
  MutexLock lock(mu_);
  return ClassForSizeLocked(footprint);
}

int SlabAllocator::ClassForSizeLocked(size_t footprint) const {
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].chunk_bytes >= footprint) return static_cast<int>(i);
  }
  return -1;
}

bool SlabAllocator::GrowClassLocked(SlabClass& cls) {
  if (arena_offset_ + options_.page_bytes > options_.arena_bytes) return false;
  uint8_t* page = arena_.data() + arena_offset_;
  arena_offset_ += options_.page_bytes;
  // Pushed highest address first: the free list pops from the back, so the
  // page's chunks are handed out in address order (the order the hand
  // later sweeps them in).
  cls.free_chunks.reserve(cls.free_chunks.size() + cls.chunks_per_page);
  for (size_t i = cls.chunks_per_page; i > 0; --i) {
    cls.free_chunks.push_back(page + (i - 1) * cls.chunk_bytes);
  }
  cls.pages.push_back(page);
  return true;
}

KvObject* SlabAllocator::ClockVictimLocked(SlabClass& cls) {
  // The hand only runs when the class has no free chunk, so every chunk of
  // its pages holds an object constructed by Allocate.  Two sweeps suffice:
  // the first clears every reference bit it passes.
  const size_t chunks = cls.pages.size() * cls.chunks_per_page;
  for (size_t step = 0; step < 2 * chunks; ++step) {
    if (cls.hand >= chunks) cls.hand = 0;
    const size_t i = cls.hand++;
    auto* object = reinterpret_cast<KvObject*>(
        cls.pages[i / cls.chunks_per_page] +
        (i % cls.chunks_per_page) * cls.chunk_bytes);
    if ((object->flags & KvObject::kFlagDetached) != 0) continue;
    // acquire: pairs with Publish's release store (see Publish).
    const uint8_t state = object->clock.load(std::memory_order_acquire);
    if (state == KvObject::kClockReferenced) {
      // relaxed: a Touch racing this store loses one hit (see Touch).
      object->clock.store(KvObject::kClockClear, std::memory_order_relaxed);
      continue;
    }
    if (state == KvObject::kClockClear) return object;
    // kClockUnpublished or kClockFree: not evictable.
  }
  return nullptr;
}

Result<KvObject*> SlabAllocator::Allocate(std::string_view key,
                                          std::string_view value,
                                          uint32_t version,
                                          EvictedObject* evicted,
                                          EvictionMode mode) {
  const size_t footprint = KvObject::FootprintFor(
      static_cast<uint32_t>(key.size()), static_cast<uint32_t>(value.size()));
  MutexLock lock(mu_);
  const int class_index = ClassForSizeLocked(footprint);
  if (class_index < 0) {
    return Status::InvalidArgument("object larger than the largest slab class");
  }
  SlabClass& cls = classes_[static_cast<size_t>(class_index)];

  if (cls.free_chunks.empty() && !GrowClassLocked(cls)) {
    if (mode == EvictionMode::kFail) {
      return Status::OutOfMemory("class full; caller may reclaim and retry");
    }
    // Arena exhausted: evict the CLOCK victim of this class (memcached
    // semantics; this is what turns a SET into Insert+Delete index ops).
    KvObject* victim = ClockVictimLocked(cls);
    if (victim == nullptr) {
      return Status::OutOfMemory("class has no evictable object");
    }
    // The victim's storage may still be read through stale index
    // candidates; keep it intact and let the caller route it through the
    // epoch manager.  This allocation cannot be satisfied until
    // ReleaseDetached hands the chunk back.
    DIDO_CHECK(evicted != nullptr)
        << "kDetach eviction requires an EvictedObject out-param";
    evicted->key.assign(victim->Key().data(), victim->Key().size());
    evicted->stale_ptr = victim;
    victim->flags |= KvObject::kFlagDetached;
    cls.live_objects -= 1;
    cls.evictions += 1;
    cls.detached += 1;
    return Status::OutOfMemory("eviction victim quarantined");
  }

  uint8_t* chunk = cls.free_chunks.back();
  cls.free_chunks.pop_back();

  KvObject* object = new (chunk) KvObject();
  object->key_size = static_cast<uint32_t>(key.size());
  object->value_size = static_cast<uint32_t>(value.size());
  object->version = version;
  object->slab_class = static_cast<uint8_t>(class_index);
  std::memcpy(object->KeyData(), key.data(), key.size());
  std::memcpy(object->ValueData(), value.data(), value.size());
  cls.live_objects += 1;
  return object;
}

void SlabAllocator::Free(KvObject* object) {
  MutexLock lock(mu_);
  DIDO_CHECK_EQ(object->flags & KvObject::kFlagDetached, 0)
      << "Free on a detached object; use ReleaseDetached";
  SlabClass& cls = classes_[object->slab_class];
  cls.live_objects -= 1;
  // relaxed: read only by the hand, which runs under mu_ as well.
  object->clock.store(KvObject::kClockFree, std::memory_order_relaxed);
  cls.free_chunks.push_back(reinterpret_cast<uint8_t*>(object));
}

bool SlabAllocator::TryDetach(KvObject* object) {
  // dido-analyze: allow(hot): detach arbitration runs only when IN.I
  // retires an unpublished or replaced object (insert failure / SET
  // supersede) — an error/replace path, not the per-query success path.
  MutexLock lock(mu_);
  if ((object->flags & KvObject::kFlagDetached) != 0) return false;
  SlabClass& cls = classes_[object->slab_class];
  cls.live_objects -= 1;
  cls.detached += 1;
  object->flags |= KvObject::kFlagDetached;
  return true;
}

void SlabAllocator::ReleaseDetached(KvObject* object) {
  MutexLock lock(mu_);
  DIDO_CHECK_NE(object->flags & KvObject::kFlagDetached, 0)
      << "ReleaseDetached on an object that was never detached";
  SlabClass& cls = classes_[object->slab_class];
  cls.detached -= 1;
  // relaxed: read only by the hand, which runs under mu_ as well.
  object->clock.store(KvObject::kClockFree, std::memory_order_relaxed);
  cls.free_chunks.push_back(reinterpret_cast<uint8_t*>(object));
}

SlabAllocator::Stats SlabAllocator::GetStats() const {
  MutexLock lock(mu_);
  Stats stats;
  stats.arena_bytes = options_.arena_bytes;
  stats.used_bytes = arena_offset_;
  for (const SlabClass& cls : classes_) {
    ClassStats cs;
    cs.chunk_bytes = cls.chunk_bytes;
    cs.pages = cls.pages.size();
    cs.live_objects = cls.live_objects;
    cs.free_chunks = cls.free_chunks.size();
    cs.evictions = cls.evictions;
    cs.detached = cls.detached;
    stats.live_objects += cls.live_objects;
    stats.total_evictions += cls.evictions;
    stats.detached_objects += cls.detached;
    stats.classes.push_back(cs);
  }
  return stats;
}

uint64_t SlabAllocator::CapacityForObject(uint32_t key_size,
                                          uint32_t value_size) const {
  const size_t footprint = KvObject::FootprintFor(key_size, value_size);
  MutexLock lock(mu_);
  const int class_index = ClassForSizeLocked(footprint);
  if (class_index < 0) return 0;
  const size_t chunk = classes_[static_cast<size_t>(class_index)].chunk_bytes;
  const uint64_t pages = options_.arena_bytes / options_.page_bytes;
  return pages * (options_.page_bytes / chunk);
}

}  // namespace dido
