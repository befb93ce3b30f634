#include "serve/double_buffer.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "io/serialize.h"
#include "serve/frozen_store.h"

namespace cafe {

DoubleBuffer::DoubleBuffer(FreshStoreFactory factory, uint64_t reclaim_wait_us)
    : factory_(std::move(factory)),
      reclaim_wait_us_(reclaim_wait_us),
      leases_(std::make_shared<LeaseState>()) {
  CAFE_CHECK(factory_ != nullptr) << "double buffer needs a store factory";
}

void DoubleBuffer::Enqueue(uint64_t generation, bool is_delta,
                           std::shared_ptr<const std::string> payload) {
  for (BufferSlot& slot : slots_) {
    // LoadState rebuilds the whole state, so a base makes every older
    // queued payload moot. Dropping them also keeps a retired buffer, which
    // restarts from a fresh store, from replaying deltas that predate its
    // base (their decay-replay guards would reject them).
    if (!is_delta) slot.pending.clear();
    slot.pending.push_back({generation, is_delta, payload});
  }
}

StatusOr<std::unique_ptr<EmbeddingStore>> DoubleBuffer::MakeFreshStore() {
  auto fresh = factory_();
  if (fresh.ok() && *fresh == nullptr) {
    return Status::InvalidArgument("buffer store factory returned null");
  }
  return fresh;
}

Status DoubleBuffer::ReclaimOrRetire(size_t slot, uint64_t generation,
                                     bool* retired) {
  {
    std::unique_lock<std::mutex> lock(leases_->mu);
    if (leases_->leased[slot]) {
      const auto wait = std::chrono::microseconds(reclaim_wait_us_);
      if (!leases_->cv.wait_for(
              lock, wait, [&] { return !leases_->leased[slot]; })) {
        // The previous-but-one generation is still held: retire this buffer
        // to its holder and bump the lease epoch so the stale lease's
        // eventual release cannot clear a lease the REPLACEMENT buffer
        // hands out later.
        leases_->leased[slot] = false;
        ++leases_->epoch[slot];
        *retired = true;
      }
    }
  }
  if (!*retired) return Status::OK();

  BufferSlot& target = slots_[slot];
  const BufferSlot& serving = slots_[slot ^ 1];
  target.store.reset();  // the holder's FrozenStore keeps the old buffer
  target.state_gen = 0;
  if (!target.pending.empty() && !target.pending.front().is_delta) {
    // The queue starts with a base: the drain materializes a factory-fresh
    // store and rebuilds from it.
    return Status::OK();
  }
  // Delta-only queue: clone the serving buffer, which is exactly one
  // generation behind (deltas are contiguous). SaveState is const and the
  // buffer is frozen, so this runs safely beside serving lookups. This is
  // the O(store) fallback the leases exist to avoid.
  if (serving.store == nullptr || serving.state_gen + 1 != generation) {
    return Status::Internal(
        "double-buffer retire: serving buffer is not at the preceding "
        "generation");
  }
  auto fresh = MakeFreshStore();
  if (!fresh.ok()) return fresh.status();
  io::Writer writer;
  CAFE_RETURN_IF_ERROR(serving.store->SaveState(&writer));
  io::Reader reader(writer.Release());
  CAFE_RETURN_IF_ERROR((*fresh)->LoadState(&reader));
  if (reader.remaining() != 0) {
    return Status::Internal(
        "buffer state not fully consumed rebuilding a retired buffer");
  }
  target.store = std::move(fresh).value();
  target.state_gen = serving.state_gen;
  return Status::OK();
}

Status DoubleBuffer::Publish(uint64_t generation, ServingSnapshot* out,
                             PublishInfo* info) {
  const size_t slot = serving_ == kNoSlot ? 0 : serving_ ^ 1;
  CAFE_RETURN_IF_ERROR(ReclaimOrRetire(slot, generation, &info->retired));

  BufferSlot& target = slots_[slot];
  WallTimer apply_timer;
  while (!target.pending.empty()) {
    PendingPayload entry = std::move(target.pending.front());
    target.pending.pop_front();
    if (entry.generation <= target.state_gen) continue;  // already folded in
    if (target.store == nullptr) {
      auto fresh = MakeFreshStore();
      if (!fresh.ok()) return fresh.status();
      target.store = std::move(fresh).value();
    }
    io::Reader reader(entry.payload.get());
    CAFE_RETURN_IF_ERROR(entry.is_delta ? target.store->LoadDelta(&reader)
                                        : target.store->LoadState(&reader));
    if (reader.remaining() != 0) {
      return Status::Internal(
          "published payload not fully consumed by the buffer store");
    }
    info->apply_bytes += entry.payload->size();
    target.state_gen = entry.generation;
  }
  info->apply_us = apply_timer.ElapsedMicros();
  if (target.state_gen != generation) {
    return Status::Internal("double-buffer publish drained to the wrong "
                            "generation");
  }

  // Freeze + no-copy handoff. The lease is marked before the snapshot
  // escapes; its deleter (run by whoever drops the last reference) hands the
  // buffer back. It holds LeaseState strongly, so a snapshot outliving the
  // buffers still releases against valid memory.
  uint64_t token = 0;
  {
    std::lock_guard<std::mutex> lock(leases_->mu);
    leases_->leased[slot] = true;
    token = ++leases_->epoch[slot];
  }
  std::shared_ptr<LeaseState> lease_state = leases_;
  out->buffer_lease = std::shared_ptr<void>(
      static_cast<void*>(nullptr), [lease_state, slot, token](void*) {
        std::lock_guard<std::mutex> lock(lease_state->mu);
        if (lease_state->epoch[slot] == token) {
          lease_state->leased[slot] = false;
          lease_state->cv.notify_all();
        }
      });
  out->store = FrozenStore::AdoptShared(target.store);
  serving_ = slot;
  return Status::OK();
}

const EmbeddingStore* DoubleBuffer::serving_store() const {
  return serving_ == kNoSlot ? nullptr : slots_[serving_].store.get();
}

uint64_t DoubleBuffer::serving_generation() const {
  return serving_ == kNoSlot ? 0 : slots_[serving_].state_gen;
}

void DoubleBuffer::Reset() {
  {
    // Outstanding leases go stale: their buffers now belong to the holders.
    std::lock_guard<std::mutex> lock(leases_->mu);
    for (size_t slot = 0; slot < 2; ++slot) {
      leases_->leased[slot] = false;
      ++leases_->epoch[slot];
    }
  }
  for (BufferSlot& slot : slots_) slot = BufferSlot();
  serving_ = kNoSlot;
}

}  // namespace cafe
