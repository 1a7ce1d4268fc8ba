// idlepoll: keeps every CPU of the machine polling instead of halting
// while the benchmark measures.
//
//   idlepoll THREADS
//
// Starts THREADS threads under SCHED_IDLE that spin with a pause
// instruction until the process is killed. A SCHED_IDLE thread runs only
// on a CPU that has nothing else to run and is preempted as soon as any
// other thread wakes there, so it takes no CPU time from the served
// system or the load generator. What it removes is the halt: on a
// virtual machine an idle CPU halts and exits to the hypervisor, and a
// thread woken on it (a server answering a frame, a client reading its
// ACK) waits until the host schedules that virtual CPU again, which on a
// shared host takes from microseconds to a millisecond depending on its
// other tenants (see README.md). Prints "polling" once every thread runs,
// and dies with its parent.

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define E2EBENCH_PAUSE() _mm_pause()
#elif defined(__aarch64__)
#define E2EBENCH_PAUSE() asm volatile("yield")
#else
#define E2EBENCH_PAUSE() std::atomic_signal_fence(std::memory_order_seq_cst)
#endif

int main(int argc, char** argv) {
  const int threads = argc == 2 ? std::atoi(argv[1]) : 0;
  if (threads < 1 || threads > 64) {
    std::fprintf(stderr, "usage: idlepoll THREADS (1..64)\n");
    return 2;
  }
  // Pollers must never outlive the run: die with the parent.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() == 1) return 1;
  std::atomic<int> started{0}, failed{0};
  std::vector<std::thread> pollers;
  for (int i = 0; i < threads; ++i) {
    pollers.emplace_back([&] {
      sched_param param{};
      param.sched_priority = 0;
      if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) ++failed;
      ++started;
      for (;;) E2EBENCH_PAUSE();
    });
  }
  while (started.load() < threads) std::this_thread::yield();
  if (failed.load() != 0) {
    std::fprintf(stderr, "idlepoll: SCHED_IDLE refused\n");
    std::_Exit(1);
  }
  std::printf("polling\n");
  std::fflush(stdout);
  for (std::thread& t : pollers) t.join();  // never returns: killed
  return 0;
}
