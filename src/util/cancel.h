// Cooperative cancellation for the query execution stack.
//
// A CancelToken is a cheap, shared flag (plus an optional monotonic
// deadline) that long-running work polls at natural boundaries: the
// attempt loop checks it per attempt, Replica::Execute per partition,
// and the blocked-format scan kernels every kScanBlockRecords records —
// so a cancelled parallel scan stops within one block of the request.
// Cancellation is always *cooperative*: nothing is interrupted
// mid-block, results already produced stay valid, and the cancelled
// path reports exactly how far it got (ScanCounters::interrupted,
// QueryResult::missed_partitions).
//
// Tokens form a two-level tree: Child() tokens observe their parent's
// flag and deadline but can be cancelled independently — the hedged-read
// race hands each racing attempt its own child of the query token, so
// cancelling the loser never touches the winner while a query-level
// deadline still stops both.
//
// A default-constructed token is inert: it holds no state, never
// reports cancellation, and makes every check a null test — the
// zero-deadline fast path costs one pointer compare.
#ifndef BLOT_UTIL_CANCEL_H_
#define BLOT_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace blot {

enum class CancelReason : std::uint8_t {
  kNone = 0,
  kDeadline,   // the query's deadline passed
  kHedgeLost,  // a racing hedged attempt finished first
  kAbandoned,  // the caller gave up (drain, disconnect)
};

class CancelToken {
 public:
  // Inert token: valid() is false, ShouldStop() is always false.
  CancelToken() = default;

  // A live token with no deadline (cancellable only via Cancel()).
  static CancelToken Create() {
    CancelToken token;
    token.state_ = std::make_shared<State>();
    return token;
  }

  // A live token that reports kDeadline once `deadline_ms` of wall time
  // elapse from now.
  static CancelToken WithDeadline(double deadline_ms) {
    CancelToken token = Create();
    token.state_->has_deadline = true;
    token.state_->deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               deadline_ms));
    return token;
  }

  bool valid() const { return state_ != nullptr; }

  // True once this token (or its parent) was cancelled or a deadline in
  // the chain passed. Expiry latches: the first check past the deadline
  // stores kDeadline so every sharer observes the same reason.
  bool ShouldStop() const {
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      if (s->reason.load(std::memory_order_relaxed) !=
          static_cast<std::uint8_t>(CancelReason::kNone))
        return true;
      if (s->has_deadline && Clock::now() >= s->deadline) {
        std::uint8_t expected = 0;
        s->reason.compare_exchange_strong(
            expected, static_cast<std::uint8_t>(CancelReason::kDeadline),
            std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  // Cancels this token (not its parent); the first reason wins. No-op
  // on an inert token.
  void Cancel(CancelReason reason) const {
    if (state_ == nullptr) return;
    std::uint8_t expected = 0;
    state_->reason.compare_exchange_strong(
        expected, static_cast<std::uint8_t>(reason),
        std::memory_order_relaxed);
  }

  // The first reason observed anywhere in the chain; kNone if none.
  CancelReason reason() const {
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      const std::uint8_t r = s->reason.load(std::memory_order_relaxed);
      if (r != static_cast<std::uint8_t>(CancelReason::kNone))
        return static_cast<CancelReason>(r);
    }
    return CancelReason::kNone;
  }

  // True when cancellation was caused by a deadline in the chain.
  bool DeadlineExpired() const {
    return ShouldStop() && reason() == CancelReason::kDeadline;
  }

  bool has_deadline() const {
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get())
      if (s->has_deadline) return true;
    return false;
  }

  // The earliest deadline in the chain. Only meaningful when
  // has_deadline().
  std::chrono::steady_clock::time_point deadline() const {
    Clock::time_point earliest = Clock::time_point::max();
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get())
      if (s->has_deadline && s->deadline < earliest) earliest = s->deadline;
    return earliest;
  }

  // A token that observes this one (flag and deadline) but can be
  // cancelled on its own. Child of an inert token is a fresh live token.
  CancelToken Child() const {
    CancelToken child = Create();
    child.state_->parent = state_;
    return child;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct State {
    // mutable: ShouldStop() latches deadline expiry through const
    // walks of the parent chain.
    mutable std::atomic<std::uint8_t> reason{0};
    bool has_deadline = false;
    Clock::time_point deadline{};
    std::shared_ptr<State> parent;
  };

  std::shared_ptr<State> state_;
};

}  // namespace blot

#endif  // BLOT_UTIL_CANCEL_H_
