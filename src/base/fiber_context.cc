#include "src/base/fiber_context.h"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/base/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define TAOS_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TAOS_ASAN_FIBERS 1
#endif
#endif

#if defined(TAOS_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace taos {

namespace {

std::size_t PageSize() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

struct Region {
  void* bottom;
  std::size_t size;
};

void Unmap(Region r) {
  char* guard = static_cast<char*>(r.bottom) - PageSize();
  TAOS_CHECK(munmap(guard, r.size + PageSize()) == 0);
}

// Freed stacks, kept for reuse by the next fiber of the same size on this
// thread. Bounded, so a burst of fibers does not pin its stacks forever.
struct StackCache {
  static constexpr std::size_t kMaxStacks = 32;
  std::vector<Region> free;

  ~StackCache() {
    for (Region r : free) {
      Unmap(r);
    }
  }
};

thread_local StackCache stack_cache;

#if defined(TAOS_ASAN_FIBERS)
// The context that began the switch now ending (ASan records its bounds).
constinit thread_local FiberContext* tls_switch_from = nullptr;
#endif

}  // namespace

FiberStack::FiberStack(std::size_t bytes) {
  const std::size_t page = PageSize();
  size_ = (bytes + page - 1) / page * page;
  std::vector<Region>& cached = stack_cache.free;
  for (std::size_t i = cached.size(); i-- > 0;) {
    if (cached[i].size == size_) {
      bottom_ = cached[i].bottom;
      cached[i] = cached.back();
      cached.pop_back();
      return;
    }
  }
  void* base = mmap(nullptr, size_ + page, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  TAOS_CHECK(base != MAP_FAILED);
  TAOS_CHECK(mprotect(base, page, PROT_NONE) == 0);  // the guard page
  bottom_ = static_cast<char*>(base) + page;
}

FiberStack::~FiberStack() {
  if (bottom_ == nullptr) {
    return;
  }
  std::vector<Region>& cached = stack_cache.free;
  if (cached.size() < StackCache::kMaxStacks) {
    cached.push_back(Region{bottom_, size_});
  } else {
    Unmap(Region{bottom_, size_});
  }
}

FiberStack::FiberStack(FiberStack&& other) noexcept
    : bottom_(std::exchange(other.bottom_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

FiberStack& FiberStack::operator=(FiberStack&& other) noexcept {
  FiberStack old(std::move(*this));
  bottom_ = std::exchange(other.bottom_, nullptr);
  size_ = std::exchange(other.size_, 0);
  return *this;
}

void FiberContext::Make(const FiberStack& stack, void (*entry)(void*),
                        void* arg, FiberContext* exit_to) {
  TAOS_CHECK(stack.bottom() != nullptr);
#if defined(TAOS_ASAN_FIBERS)
  // A reused stack still carries the poisoned redzones of its last fiber's
  // outermost frames.
  ASAN_UNPOISON_MEMORY_REGION(stack.bottom(), stack.size());
#endif
  entry_ = entry;
  arg_ = arg;
  exit_to_ = exit_to;
  eh_ = {};
  stack_bottom_ = stack.bottom();
  stack_size_ = stack.size();
  fake_stack_ = nullptr;
  TAOS_CHECK(getcontext(&uc_) == 0);
  uc_.uc_stack.ss_sp = stack.bottom();
  uc_.uc_stack.ss_size = stack.size();
  uc_.uc_link = &exit_to->uc_;
  // makecontext passes int-sized arguments; split the pointer.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&uc_, reinterpret_cast<void (*)()>(&FiberContext::Entry), 2,
              static_cast<unsigned int>(self >> 32),
              static_cast<unsigned int>(self));
}

void FiberContext::Entry(unsigned int hi, unsigned int lo) {
  auto* self = reinterpret_cast<FiberContext*>(
      (static_cast<std::uintptr_t>(hi) << 32) | lo);
  self->EndSwitch();
  self->entry_(self->arg_);
  // Returning resumes uc_link, the exit_to context.
  self->BeginSwitch(*self->exit_to_, /*finished=*/true);
}

void FiberContext::SwitchTo(FiberContext& to) {
  BeginSwitch(to, /*finished=*/false);
  TAOS_CHECK(swapcontext(&uc_, &to.uc_) == 0);
  EndSwitch();
}

void FiberContext::BeginSwitch(FiberContext& to, bool finished) {
  void* eh_globals = abi::__cxa_get_globals();
  std::memcpy(&eh_, eh_globals, sizeof(EhState));
  std::memcpy(eh_globals, &to.eh_, sizeof(EhState));
#if defined(TAOS_ASAN_FIBERS)
  tls_switch_from = this;
  // A finished fiber passes no fake-stack slot: ASan frees its fake stack.
  __sanitizer_start_switch_fiber(finished ? nullptr : &fake_stack_,
                                 to.stack_bottom_, to.stack_size_);
#else
  (void)finished;
#endif
}

void FiberContext::EndSwitch() {
#if defined(TAOS_ASAN_FIBERS)
  FiberContext* from = tls_switch_from;
  __sanitizer_finish_switch_fiber(fake_stack_, &from->stack_bottom_,
                                  &from->stack_size_);
#endif
}

}  // namespace taos
