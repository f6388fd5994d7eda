#include "counting_alloc.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

namespace perfbench::alloc {
namespace {

std::atomic<bool> g_active{false};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

void count(std::size_t size) noexcept {
  if (!g_active.load(std::memory_order_relaxed)) return;
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count(size);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) return p;
  throw std::bad_alloc();
}

/// Keeps the optimizer from eliding a new/delete pair in the self-test.
void escape(void* p) noexcept { asm volatile("" : : "g"(p) : "memory"); }

}  // namespace

void start() noexcept {
  g_calls.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
  g_active.store(true, std::memory_order_seq_cst);
}

Counts stop() noexcept {
  g_active.store(false, std::memory_order_seq_cst);
  return Counts{g_calls.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

bool self_test() {
  bool pass = true;
  auto expect = [&pass](const char* what, bool condition) {
    std::printf("allocator self-test: %-44s %s\n", what, condition ? "ok" : "FAILED");
    if (!condition) pass = false;
  };

  char* outside = new char[64];  // before start(): must not count
  escape(outside);
  start();
  std::vector<char*> blocks;
  blocks.reserve(10);  // 1 call, 10 * sizeof(char*) bytes
  for (int i = 0; i < 10; ++i) {
    blocks.push_back(new char[100]);  // 10 calls, 1000 bytes
    escape(blocks.back());
  }
  auto* aligned = new (std::align_val_t{64}) char[32];  // 1 call, 32 bytes
  escape(aligned);
  const Counts counted = stop();
  for (char* b : blocks) delete[] b;
  ::operator delete[](aligned, std::align_val_t{64});
  char* after = new char[128];  // after stop(): must not count
  escape(after);
  delete[] after;
  delete[] outside;

  const std::uint64_t want_bytes = 10 * sizeof(char*) + 1000 + 32;
  std::printf("allocator self-test: counted %llu calls, %llu bytes (want 12, %llu)\n",
              static_cast<unsigned long long>(counted.calls),
              static_cast<unsigned long long>(counted.bytes),
              static_cast<unsigned long long>(want_bytes));
  expect("calls inside the region counted exactly", counted.calls == 12);
  expect("bytes inside the region counted exactly", counted.bytes == want_bytes);
  start();
  const Counts idle = stop();
  expect("an empty region counts nothing", idle.calls == 0 && idle.bytes == 0);
  return pass;
}

}  // namespace perfbench::alloc

// Marker string run.py looks for: present in binaries that link this file.
extern "C" __attribute__((used)) const char perfbench_counting_allocator_marker[] =
    "perfbench-counting-allocator-linked";

void* operator new(std::size_t size) { return perfbench::alloc::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::alloc::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::alloc::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::alloc::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::alloc::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::alloc::allocate_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
