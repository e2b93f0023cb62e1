#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace prdma::sim {

/// Intrusive FIFO of suspended awaiters, threaded through each
/// awaiter's `next_` pointer (W declares `W* next_` and befriends
/// WaiterList<W>). An awaiter lives in the frame of the coroutine it
/// suspends, which stays put until the waiter is resumed, so queueing a
/// waiter never allocates.
template <typename W>
class WaiterList {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push_back(W* w) noexcept {
    w->next_ = nullptr;
    if (tail_ != nullptr) {
      tail_->next_ = w;
    } else {
      head_ = w;
    }
    tail_ = w;
    ++size_;
  }

  /// Requires !empty().
  W* pop_front() noexcept {
    W* w = head_;
    head_ = w->next_;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    return w;
  }

  /// Empties the list first, then calls fn(w) for every former waiter
  /// in FIFO order (so fn may queue new waiters).
  template <typename Fn>
  void drain(Fn&& fn) {
    W* w = std::exchange(head_, nullptr);
    tail_ = nullptr;
    size_ = 0;
    while (w != nullptr) {
      W* next = w->next_;
      fn(*w);
      w = next;
    }
  }

 private:
  W* head_ = nullptr;
  W* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// One-shot (resettable) event for task synchronization.
///
/// Waiters resume through the event queue at the signalling timestamp,
/// never inline, which keeps resume order deterministic and the native
/// stack flat. wait() resumes with `true` on set() and `false` on
/// abort() — the abort path models node crashes tearing down pending
/// operations without destroying the synchronization object itself.
class Event {
 public:
  explicit Event(Simulator& sim) noexcept : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  [[nodiscard]] bool is_set() const noexcept { return set_; }

  void set() { fire(true); }
  void abort() { fire(false); }

  /// Re-arms an already fired event.
  void reset() noexcept { set_ = false; }

  [[nodiscard]] std::size_t waiter_count() const noexcept { return waiters_.size(); }

  class Awaiter {
   public:
    explicit Awaiter(Event& ev) noexcept : ev_(ev) {}
    bool await_ready() const noexcept { return ev_.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      ev_.waiters_.push_back(this);
    }
    bool await_resume() const noexcept { return ok_; }

   private:
    friend class Event;
    friend class WaiterList<Awaiter>;
    Event& ev_;
    std::coroutine_handle<> handle_{};
    Awaiter* next_ = nullptr;
    bool ok_ = true;
  };

  [[nodiscard]] Awaiter wait() noexcept { return Awaiter{*this}; }

 private:
  void fire(bool ok) {
    if (ok) set_ = true;
    waiters_.drain([&](Awaiter& w) {
      w.ok_ = ok;
      sim_.schedule(0, [h = w.handle_] { h.resume(); });
    });
  }

  Simulator& sim_;
  bool set_ = false;
  WaiterList<Awaiter> waiters_;
};

/// Unbounded FIFO channel between simulation tasks.
///
/// recv() yields std::nullopt once the channel is closed and drained
/// (or was reset while waiting). send() never blocks; backpressure in
/// the models is expressed explicitly (flow-control thresholds), not by
/// channel capacity.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) noexcept : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T v) {
    if (closed_) return;  // messages to a closed channel are dropped
    if (!waiters_.empty()) {
      RecvAwaiter* w = waiters_.pop_front();
      w->slot_ = std::move(v);
      sim_.schedule(0, [h = w->handle_] { h.resume(); });
      return;
    }
    queue_.push_back(std::move(v));
  }

  /// Closes the channel: queued items remain receivable; once drained,
  /// recv() returns std::nullopt. Pending waiters wake with nullopt.
  void close() {
    closed_ = true;
    wake_all_empty();
  }

  /// Crash helper: drops queued items and wakes waiters with nullopt,
  /// then re-opens the channel for the post-restart epoch.
  void reset() {
    queue_.clear();
    wake_all_empty();
    closed_ = false;
  }

  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }
  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }

  std::optional<T> try_recv() {
    if (queue_.empty()) return std::nullopt;
    std::optional<T> v{std::move(queue_.front())};
    queue_.pop_front();
    return v;
  }

  class RecvAwaiter {
   public:
    explicit RecvAwaiter(Channel& ch) noexcept : ch_(ch) {}
    bool await_ready() const noexcept { return !ch_.queue_.empty() || ch_.closed_; }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      ch_.waiters_.push_back(this);
    }
    std::optional<T> await_resume() {
      if (slot_.has_value()) return std::move(slot_);
      return ch_.try_recv();
    }

   private:
    friend class Channel;
    friend class WaiterList<RecvAwaiter>;
    Channel& ch_;
    std::coroutine_handle<> handle_{};
    RecvAwaiter* next_ = nullptr;
    std::optional<T> slot_;
  };

  [[nodiscard]] RecvAwaiter recv() noexcept { return RecvAwaiter{*this}; }

 private:
  void wake_all_empty() {
    waiters_.drain([&](RecvAwaiter& w) {
      sim_.schedule(0, [h = w.handle_] { h.resume(); });
    });
  }

  Simulator& sim_;
  bool closed_ = false;
  std::deque<T> queue_;
  WaiterList<RecvAwaiter> waiters_;
};

/// Counting semaphore for tasks; models bounded resources such as CPU
/// cores, DMA engines and flow-control windows.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::size_t initial) noexcept
      : sim_(sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  [[nodiscard]] std::size_t available() const noexcept { return count_; }
  [[nodiscard]] std::size_t waiting() const noexcept { return waiters_.size(); }

  void release(std::size_t n = 1) {
    while (n > 0 && !waiters_.empty()) {
      const std::coroutine_handle<> h = waiters_.pop_front()->handle_;
      sim_.schedule(0, [h] { h.resume(); });
      --n;
    }
    count_ += n;
  }

  /// Fault-recovery helper: forces the available count. Tasks already
  /// waiting are served first (a crash can strand waiters whose
  /// credits died with the server).
  void reset(std::size_t count) {
    count_ = 0;
    release(count);
  }

  class Awaiter {
   public:
    explicit Awaiter(Semaphore& s) noexcept : sem_(s) {}
    bool await_ready() const noexcept {
      if (sem_.count_ > 0) {
        --sem_.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      sem_.waiters_.push_back(this);
    }
    void await_resume() const noexcept {}

   private:
    friend class Semaphore;
    friend class WaiterList<Awaiter>;
    Semaphore& sem_;
    std::coroutine_handle<> handle_{};
    Awaiter* next_ = nullptr;
  };

  [[nodiscard]] Awaiter acquire() noexcept { return Awaiter{*this}; }

 private:
  Simulator& sim_;
  std::size_t count_;
  WaiterList<Awaiter> waiters_;
};

/// RAII guard pairing a Semaphore acquire with its release.
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& s) noexcept : sem_(&s) {}
  SemaphoreGuard(SemaphoreGuard&& o) noexcept : sem_(std::exchange(o.sem_, nullptr)) {}
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(SemaphoreGuard&&) = delete;
  ~SemaphoreGuard() {
    if (sem_ != nullptr) sem_->release();
  }

 private:
  Semaphore* sem_;
};

/// Join-point for a dynamic set of tasks (like Go's WaitGroup).
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& sim) noexcept : sim_(sim), done_(sim) {}

  void add(std::size_t n = 1) noexcept { outstanding_ += n; }

  void done() {
    if (outstanding_ == 0) return;
    if (--outstanding_ == 0) {
      done_.set();
    }
  }

  /// Resolves once all add()ed tasks called done(). Resolves
  /// immediately when nothing is outstanding.
  Task<> wait() {
    if (outstanding_ > 0) {
      co_await done_.wait();
    } else {
      co_await delay(sim_, 0);
    }
  }

  [[nodiscard]] std::size_t outstanding() const noexcept { return outstanding_; }

 private:
  Simulator& sim_;
  Event done_;
  std::size_t outstanding_ = 0;
};

}  // namespace prdma::sim
