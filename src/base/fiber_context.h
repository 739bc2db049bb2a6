// The one context-switch primitive behind both single-process Threads
// substrates: src/coro (the paper's "co-routine mechanism" implementation)
// and src/firefly (the simulated multiprocessor). Both run every thread of
// the package on one host OS thread and move control between them with
// getcontext/makecontext/swapcontext.
//
//  - FiberStack: an mmap'd stack with a PROT_NONE guard page below it, so a
//    fiber that overflows faults instead of silently corrupting the heap.
//    Freed stacks go to a small per-thread cache, so a model checker that
//    builds thousands of short-lived fibers back to back makes no syscall
//    per fiber.
//  - FiberContext: one execution context, either the driver's (filled in by
//    its first SwitchTo) or a fiber's (prepared by Make). A switch also
//    swaps the C++ runtime's per-thread exception state (the caught and
//    uncaught exceptions), which is per fiber, not per OS thread: two
//    fibers may each sit inside a catch handler across a switch. Under
//    AddressSanitizer every switch carries the sanitizer's fiber
//    annotations, so an exception that unwinds a fiber stack is not
//    misreported as stack-use-after-scope.
//
// A context is resumed only on the OS thread that created it.

#ifndef TAOS_SRC_BASE_FIBER_CONTEXT_H_
#define TAOS_SRC_BASE_FIBER_CONTEXT_H_

#include <ucontext.h>

#include <cstddef>

namespace taos {

class FiberStack {
 public:
  FiberStack() = default;
  // At least `bytes` of usable stack (rounded up to whole pages).
  explicit FiberStack(std::size_t bytes);
  ~FiberStack();
  FiberStack(FiberStack&& other) noexcept;
  FiberStack& operator=(FiberStack&& other) noexcept;
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  // The usable region, above the guard page.
  void* bottom() const { return bottom_; }
  std::size_t size() const { return size_; }

 private:
  void* bottom_ = nullptr;
  std::size_t size_ = 0;
};

class FiberContext {
 public:
  FiberContext() = default;
  FiberContext(const FiberContext&) = delete;
  FiberContext& operator=(const FiberContext&) = delete;

  // Prepares a fiber context: the first SwitchTo into it runs entry(arg) on
  // `stack`; when entry returns, control resumes `exit_to` (which must be
  // the context that last switched here) and this context is finished.
  // `stack` must outlive the fiber's execution.
  void Make(const FiberStack& stack, void (*entry)(void*), void* arg,
            FiberContext* exit_to);

  // Saves the running context into *this and resumes `to`. Returns when
  // some context switches back to *this.
  void SwitchTo(FiberContext& to);

 private:
  static void Entry(unsigned int hi, unsigned int lo);
  void BeginSwitch(FiberContext& to, bool finished);
  void EndSwitch();

  ucontext_t uc_{};
  void (*entry_)(void*) = nullptr;
  void* arg_ = nullptr;
  FiberContext* exit_to_ = nullptr;

  // This context's share of the C++ runtime's per-thread exception state
  // while it is switched out: a copy of the Itanium C++ ABI's
  // __cxa_eh_globals (caught-exception stack, uncaught count), the layout
  // libstdc++ and libc++abi share.
  struct EhState {
    void* caught_exceptions = nullptr;
    unsigned int uncaught_exceptions = 0;
  };
  EhState eh_;

  // AddressSanitizer bookkeeping: the stack bounds (learned by the first
  // switch away, for the driver) and the fake stack saved while switched
  // out. Unused in other builds.
  const void* stack_bottom_ = nullptr;
  std::size_t stack_size_ = 0;
  void* fake_stack_ = nullptr;
};

}  // namespace taos

#endif  // TAOS_SRC_BASE_FIBER_CONTEXT_H_
