#pragma once

#include <mutex>

namespace sdft {

/// A std::mutex that spins briefly before it blocks. Meant for a lock that
/// several threads take at a high rate and hold for well under a
/// microsecond (the quantification cache's lookups): there, a contended
/// std::mutex puts the waiter to sleep in the kernel and wakes it again,
/// which costs more than the critical section and lasts as long as the
/// machine's scheduler takes, so the callers' throughput follows the load
/// of the whole machine. After `spins` failed attempts the waiter blocks
/// as on a plain std::mutex, so a preempted holder costs a bounded spin.
class spin_mutex {
 public:
  void lock() {
    for (int i = 0; i < spins; ++i) {
      if (mutex_.try_lock()) return;
      relax();
    }
    mutex_.lock();
  }

  void unlock() { mutex_.unlock(); }

 private:
  static constexpr int spins = 128;

  /// Tells the core this is a spin-wait (frees the pipeline for a sibling
  /// hyperthread) where the architecture has such a hint.
  static void relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::mutex mutex_;
};

}  // namespace sdft
