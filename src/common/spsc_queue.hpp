// Bounded single-producer/single-consumer handoff queue, used on two
// serve-layer channels:
//
//   · engine → adaptation-trainer (DESIGN.md §9): the tick loop pushes
//     harvested windows and round markers, the trainer thread drains them;
//   · ingest pump → engine shard (DESIGN.md §10): the pump routes raw
//     frames by link hash, each shard thread drains its own queue.
//
// FIFO order per queue is what makes downstream state a pure function of
// the wire: the replay buffer's contents at a round marker, and a shard's
// per-link frame sequence, never depend on scheduling.
//
// A lock-free ring (DESIGN.md §10). The producer owns `tail_`, the
// consumer owns `head_`; each sits on its own cache line next to the
// owner's cached copy of the other index, so a side touches the other's
// line only when its cached view says full (producer) or empty (consumer).
// Slots are reused in place: a push assigns into the slot (a LinkFrame's
// byte vector keeps its capacity), a pop swaps the slot out into the
// caller's object (whose old buffer goes back into the ring), and a slot
// is constructed on its first use — so after warm-up the hop allocates
// nothing, and an idle queue costs no more than its raw storage.
//
// A side that must wait spins a few iterations, then sleeps on a mutex +
// condvar. It raises its sleeping flag before its last re-check, and the
// other side reads that flag after publishing its index; both pairs are
// seq_cst, so at least one side sees the other's write and no wakeup is
// lost. The waker lowers the flag as it notifies, so one sleep costs one
// wake however many items follow before the sleeper runs. The lock is
// taken only by a sleeper, by the side waking it, and by close() — never
// on the per-item path.
//
// A full queue BLOCKS the producer (bounded memory, nothing is ever
// dropped — dropping would break the determinism contract of both
// subsystems); the Stats counters expose how often that backpressure
// actually bit so operators can size capacities.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace mlad {

template <typename T>
class SpscQueue {
 public:
  /// Backpressure / traffic counters. Each is written by one side only
  /// (pushes, producer_blocks, rejected, peak_depth by the producer; pops
  /// by the consumer) and readable from any thread.
  struct Stats {
    std::uint64_t pushes = 0;           ///< items accepted (incl. try_push)
    std::uint64_t pops = 0;             ///< items handed to the consumer
    std::uint64_t producer_blocks = 0;  ///< pushes that found the queue full
    std::uint64_t rejected = 0;         ///< try_push calls that returned false
    std::uint64_t peak_depth = 0;       ///< high-water item count
  };

  explicit SpscQueue(std::size_t capacity)
      : capacity_(checked(capacity)), slots_(new Slot[capacity]) {
    // Here, not at class scope: a nested T is complete only once its
    // enclosing class is.
    static_assert(std::is_default_constructible_v<T> && std::is_swappable_v<T>,
                  "SpscQueue slots are default-constructed and swapped out");
  }

  ~SpscQueue() {
    for (std::size_t i = 0; i < constructed_; ++i) std::destroy_at(slot(i));
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Enqueue, blocking while the queue is full. After close(), pushes are
  /// silently dropped (the consumer is gone; there is nothing to hand off).
  void push(const T& value) {
    push_with([&](T& slot) { slot = value; });
  }
  void push(T&& value) {
    push_with([&](T& slot) { slot = std::move(value); });
  }

  /// push() that writes the next slot in place: `fill(T& slot)` must set
  /// every field, since the slot holds whatever a pop last swapped into it
  /// (its buffers are what make the hop allocation-free). Not called when
  /// the push is dropped.
  template <typename Fill>
  void push_with(Fill&& fill) {
    if (closed_.load(std::memory_order_acquire)) return;
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (!has_room(t)) {
      producer_blocks_.fetch_add(1, std::memory_order_relaxed);
      if (!wait_for_room(t)) return;
    }
    publish(t, fill);
  }

  /// Enqueue only if there is room right now. Returns false (and counts a
  /// rejection) when the queue is full or closed — the caller keeps the
  /// value and decides what backpressure means for it.
  bool try_push(const T& value) {
    return try_push_with([&](T& slot) { slot = value; });
  }
  bool try_push(T&& value) {
    return try_push_with([&](T& slot) { slot = std::move(value); });
  }

  /// Dequeue into `out`, blocking until an item arrives or the queue is
  /// closed AND drained. Returns false only in the closed-and-drained case.
  /// `out`'s previous contents are swapped into the freed slot.
  bool pop(T& out) { return pop_until(out, nullptr) == PopResult::kItem; }

  /// Dequeue only if an item is there right now; never waits. False means
  /// "empty at this instant", closed or not — a consumer that must tell the
  /// two apart follows up with pop()/pop_for(). Lets a consumer do work
  /// that pays only once its input has run dry (the serve shards' ready-only
  /// tick, DESIGN.md §10) before it blocks.
  bool try_pop(T& out) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (drained_ || !has_item(h)) return false;
    take(h, out);
    return true;
  }

  /// Outcome of a timed pop.
  enum class PopResult { kItem, kTimeout, kClosed };

  /// Dequeue like pop(), but give up after `timeout_ms` without an item.
  /// kTimeout means "nothing yet, queue still open" — the consumer can run
  /// housekeeping (e.g. the serve shards' wall-clock straggler sweep,
  /// DESIGN.md §12) and come back. kClosed is pop()'s false: closed AND
  /// drained.
  PopResult pop_for(T& out, int timeout_ms) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    return pop_until(out, &deadline);
  }

  /// No more pushes; pending items stay poppable and blocked sides wake.
  /// Idempotent; callable from any thread.
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_.store(true, std::memory_order_seq_cst);
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t size() const {
    // head first: tail only grows, so tail - head never underflows.
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    h);
  }

  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return capacity_; }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  Stats stats() const {
    Stats s;
    s.pops = head_.load(std::memory_order_acquire);
    s.pushes = tail_.load(std::memory_order_acquire);
    s.producer_blocks = producer_blocks_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.peak_depth = peak_depth_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;
  /// Raw storage for one T; constructed on first use (constructed_).
  struct Slot {
    alignas(T) unsigned char bytes[sizeof(T)];
  };
  static constexpr std::size_t kLine = 64;
  /// Re-checks before a waiting side sleeps: long enough to ride out a
  /// peer that is mid-item, far shorter than a futex round trip.
  static constexpr int kSpins = 64;

  static std::size_t checked(std::size_t capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("SpscQueue: capacity must be > 0");
    }
    return capacity;
  }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  T* slot(std::size_t i) const {
    return std::launder(reinterpret_cast<T*>(slots_[i].bytes));
  }

  // ---- producer side --------------------------------------------------------

  bool has_room(std::uint64_t t) {
    if (t - cached_head_ < capacity_) return true;
    cached_head_ = head_.load(std::memory_order_seq_cst);
    return t - cached_head_ < capacity_;
  }

  template <typename Fill>
  bool try_push_with(Fill&& fill) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (closed_.load(std::memory_order_acquire) || !has_room(t)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    publish(t, fill);
    return true;
  }

  template <typename Fill>
  void publish(std::uint64_t t, Fill& fill) {
    if (constructed_ < capacity_ && tail_slot_ == constructed_) {
      ::new (static_cast<void*>(slots_[tail_slot_].bytes)) T();
      ++constructed_;
    }
    fill(*slot(tail_slot_));
    if (++tail_slot_ == capacity_) tail_slot_ = 0;
    tail_.store(t + 1, std::memory_order_seq_cst);
    note_depth(t + 1);
    if (consumer_sleeping_.load(std::memory_order_seq_cst)) {
      wake(consumer_sleeping_, not_empty_);
    }
  }

  /// Exact high-water mark at one head load per new peak: the cached head
  /// can only overstate the depth, so a cached depth within the peak needs
  /// no refresh.
  void note_depth(std::uint64_t t) {
    const std::uint64_t peak = peak_depth_.load(std::memory_order_relaxed);
    if (t - cached_head_ <= peak) return;
    cached_head_ = head_.load(std::memory_order_acquire);
    if (t - cached_head_ > peak) {
      peak_depth_.store(t - cached_head_, std::memory_order_relaxed);
    }
  }

  /// Spin, then sleep until the slot for push number `t` is free. False if
  /// the queue closed first.
  bool wait_for_room(std::uint64_t t) {
    for (int i = 0; i < kSpins; ++i) {
      cpu_relax();
      if (closed_.load(std::memory_order_acquire)) return false;
      if (has_room(t)) return true;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    bool room = false;
    for (;;) {
      producer_sleeping_.store(true, std::memory_order_seq_cst);
      if (closed_.load(std::memory_order_seq_cst) || (room = has_room(t))) {
        break;
      }
      not_full_.wait(lock);
    }
    producer_sleeping_.store(false, std::memory_order_relaxed);
    return room && !closed_.load(std::memory_order_seq_cst);
  }

  // ---- consumer side --------------------------------------------------------

  bool has_item(std::uint64_t h) {
    if (h != cached_tail_) return true;
    cached_tail_ = tail_.load(std::memory_order_seq_cst);
    return h != cached_tail_;
  }

  PopResult pop_until(T& out, const Clock::time_point* deadline) {
    // Closed-and-drained is terminal, even if a push racing close() lands
    // afterwards (that push counts as dropped).
    if (drained_) return PopResult::kClosed;
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (!has_item(h)) {
      const PopResult r = wait_for_item(h, deadline);
      if (r != PopResult::kItem) {
        drained_ = r == PopResult::kClosed;
        return r;
      }
    }
    take(h, out);
    return PopResult::kItem;
  }

  /// Hand item number `h` (published) to the consumer and free its slot.
  void take(std::uint64_t h, T& out) {
    using std::swap;
    swap(out, *slot(head_slot_));
    if (++head_slot_ == capacity_) head_slot_ = 0;
    head_.store(h + 1, std::memory_order_seq_cst);
    if (producer_sleeping_.load(std::memory_order_seq_cst)) {
      wake(producer_sleeping_, not_full_);
    }
  }

  /// Spin, then sleep until item number `h` is published, the queue is
  /// closed and drained, or `deadline` (null = none) passes.
  PopResult wait_for_item(std::uint64_t h, const Clock::time_point* deadline) {
    // An item published before close() is always seen: close() follows
    // the producer's last tail store, so tail is re-read after closed_.
    const auto closed_state = [&] {
      return has_item(h) ? PopResult::kItem : PopResult::kClosed;
    };
    for (int i = 0; i < kSpins; ++i) {
      cpu_relax();
      if (has_item(h)) return PopResult::kItem;
      if (closed_.load(std::memory_order_acquire)) return closed_state();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    PopResult r = PopResult::kTimeout;
    bool timed_out = false;
    for (;;) {
      consumer_sleeping_.store(true, std::memory_order_seq_cst);
      if (has_item(h)) {
        r = PopResult::kItem;
      } else if (closed_.load(std::memory_order_seq_cst)) {
        r = closed_state();
      } else if (!timed_out) {
        if (deadline == nullptr) {
          not_empty_.wait(lock);
        } else {
          timed_out = not_empty_.wait_until(lock, *deadline) ==
                      std::cv_status::timeout;
        }
        continue;
      }
      break;
    }
    consumer_sleeping_.store(false, std::memory_order_relaxed);
    return r;
  }

  /// Taking the lock orders this wake after the sleeper's re-check; the
  /// notify follows the unlock, so the woken side never blocks on it.
  void wake(std::atomic<bool>& sleeping, std::condition_variable& cv) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sleeping.store(false, std::memory_order_relaxed);
    }
    cv.notify_one();
  }

  // Read-only after construction.
  const std::size_t capacity_;
  const std::unique_ptr<Slot[]> slots_;

  // Producer line: its index, its view of head_, its counters.
  alignas(kLine) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;
  std::size_t tail_slot_ = 0;    ///< tail_ % capacity_
  std::size_t constructed_ = 0;  ///< slots [0, constructed_) hold a T
  std::atomic<std::uint64_t> producer_blocks_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> peak_depth_{0};

  // Consumer line.
  alignas(kLine) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;
  std::size_t head_slot_ = 0;  ///< head_ % capacity_
  bool drained_ = false;       ///< a pop returned closed-and-drained

  // Read on every item, written only by close(), sleepers and wakers.
  alignas(kLine) std::atomic<bool> closed_{false};
  std::atomic<bool> producer_sleeping_{false};  ///< waiting in not_full_
  std::atomic<bool> consumer_sleeping_{false};  ///< waiting in not_empty_

  // Sleep machinery, touched only off the per-item path.
  alignas(kLine) std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
};

}  // namespace mlad
