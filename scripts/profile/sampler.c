// SIGPROF stack sampler, loaded into a program with LD_PRELOAD.
//
//   cc -O2 -shared -fPIC -o libsampler.so scripts/profile/sampler.c
//   LD_PRELOAD=$PWD/libsampler.so PROFILE_OUT=/tmp/run ./program
//   python3 scripts/profile/report.py /tmp/run.*.prof
//
// A profiling interval timer (ITIMER_PROF: process CPU time, so a busy
// thread is what gets sampled) raises SIGPROF PROFILE_HZ times a second
// (default 1000).  The kernel checks CPU-time timers once per scheduler
// tick, so a run of a few milliseconds may get no sample at all; with
// PROFILE_CLOCK=wall a CLOCK_MONOTONIC timer raises SIGPROF instead, at
// rates far above the tick (say PROFILE_HZ=20000), to whichever thread
// the kernel picks.  The handler records the interrupted thread's call
// stack with backtrace(3) into a buffer mapped at load time.  At exit the
// samples and a copy of /proc/self/maps are written to
// <PROFILE_OUT>.<pid>.prof (PROFILE_OUT defaults to "sampler"), which
// report.py symbolizes.
//
// File format, all text:
//   hz <samples per second>
//   dropped <samples that did not fit the buffer>
//   maps          then /proc/self/maps verbatim, up to a line "end"
//   s <pc> <return address>...   one line per sample, leaf first, in hex
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxDepth = 64, kBufferWords = 1 << 23 };  // 64 MiB, touched lazily

// Samples back to back: a depth, then that many addresses.
static uintptr_t* buffer;
static size_t used;  // words, reserved atomically by the handler
static size_t dropped;
static int hz = 1000;
static int wallClock;
static timer_t wallTimer;
static volatile sig_atomic_t stopped;

static void onSigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (stopped) {
    return;
  }
  void* frames[kMaxDepth + 4];
  const int n = backtrace(frames, kMaxDepth + 4);
  // Skip this handler and the signal trampoline: the sample starts at the
  // interrupted instruction, which the unwinder reports as it is.
  int first = n < 2 ? n : 2;
#if defined(__x86_64__)
  const uintptr_t pc =
      (uintptr_t)((ucontext_t*)context)->uc_mcontext.gregs[REG_RIP];
  for (int i = 0; i < n; ++i) {
    if ((uintptr_t)frames[i] == pc) {
      first = i;
      break;
    }
  }
#else
  (void)context;
#endif
  const size_t depth = (size_t)(n - first);
  if (depth == 0) {
    return;
  }
  const size_t at = __atomic_fetch_add(&used, depth + 1, __ATOMIC_RELAXED);
  if (at + depth + 1 > kBufferWords) {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
    return;
  }
  for (size_t i = 0; i < depth; ++i) {
    buffer[at + 1 + i] = (uintptr_t)frames[first + i];
  }
  // The depth goes last: a slot whose depth is still 0 was cut off by
  // the end of the run and is skipped.
  __atomic_store_n(&buffer[at], depth, __ATOMIC_RELEASE);
}

// Arms the timer with period `nsec`, or disarms it for 0.
static void setTimer(long nsec) {
  if (wallClock) {
    struct itimerspec timer;
    memset(&timer, 0, sizeof(timer));
    timer.it_interval.tv_nsec = nsec;
    timer.it_value.tv_nsec = nsec;
    timer_settime(wallTimer, 0, &timer, NULL);
    return;
  }
  struct itimerval timer;
  memset(&timer, 0, sizeof(timer));
  timer.it_interval.tv_usec = nsec / 1000;
  timer.it_value.tv_usec = nsec / 1000;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((constructor)) static void samplerStart(void) {
  const char* rate = getenv("PROFILE_HZ");
  if (rate != NULL && atoi(rate) > 0) {
    hz = atoi(rate);
  }
  void* map = mmap(NULL, kBufferWords * sizeof(uintptr_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) {
    perror("sampler: mmap");
    return;
  }
  buffer = map;
  // backtrace() loads the unwinder on its first call, which must not
  // happen inside the handler.
  void* warm[4];
  backtrace(warm, 4);

  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = onSigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  const char* clock = getenv("PROFILE_CLOCK");
  if (clock != NULL && strcmp(clock, "wall") == 0) {
    struct sigevent event;
    memset(&event, 0, sizeof(event));
    event.sigev_notify = SIGEV_SIGNAL;
    event.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_MONOTONIC, &event, &wallTimer) != 0) {
      perror("sampler: timer_create");
      return;
    }
    wallClock = 1;
  }
  setTimer(hz >= 1000000 ? 1000 : 1000000000L / hz);
}

__attribute__((destructor)) static void samplerStop(void) {
  if (buffer == NULL) {
    return;
  }
  stopped = 1;
  setTimer(0);
  if (wallClock) {
    timer_delete(wallTimer);
  }
  signal(SIGPROF, SIG_IGN);

  const char* prefix = getenv("PROFILE_OUT");
  char path[4096];
  snprintf(path, sizeof(path), "%s.%ld.prof",
           prefix != NULL && prefix[0] != '\0' ? prefix : "sampler",
           (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror("sampler: fopen");
    return;
  }
  fprintf(out, "hz %d\ndropped %zu\nmaps\n", hz, dropped);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) {
      fputs(line, out);
    }
    fclose(maps);
  }
  fputs("end\n", out);
  const size_t end = used < kBufferWords ? used : kBufferWords;
  for (size_t at = 0; at < end;) {
    const size_t depth = buffer[at];
    if (depth == 0 || at + 1 + depth > end) {
      break;
    }
    fputs("s", out);
    for (size_t i = 0; i < depth; ++i) {
      fprintf(out, " %zx", (size_t)buffer[at + 1 + i]);
    }
    fputc('\n', out);
    at += depth + 1;
  }
  fclose(out);
}
