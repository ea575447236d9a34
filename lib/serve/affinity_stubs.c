/* CPU affinity for supervised worker processes (affinity.ml).
 *
 * Pinning each worker to its own core keeps its working set in that
 * core's caches and stops the scheduler migrating a worker mid-flow.  Linux-only; other platforms report "unsupported"
 * and the caller warns instead of failing (the serve tier runs fine
 * unpinned).
 */

#ifdef __linux__
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif
#include <sched.h>
#include <unistd.h>
#include <errno.h>
#endif

#include <caml/mlvalues.h>

/* 0 = pinned, -1 = syscall failed, -2 = unsupported platform */
CAMLprim value rc_affinity_pin_self(value core)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Long_val(core), &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0)
    return Val_long(-1);
  return Val_long(0);
#else
  (void) core;
  return Val_long(-2);
#endif
}

CAMLprim value rc_affinity_ncores(value unit)
{
  (void) unit;
#ifdef __linux__
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return Val_long(n > 0 ? n : 1);
#else
  return Val_long(1);
#endif
}
