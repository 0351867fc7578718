/* Monotonic clock for Hydra_obs timers and spans.

   CLOCK_MONOTONIC nanoseconds returned as an unboxed OCaml int
   (Val_long): 63 bits hold ~146 years of nanoseconds since boot, so
   the value always fits and the call never allocates — safe to use
   inside hot loops and from any domain. */

#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value hydra_obs_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

/* Sleep for a given number of nanoseconds.

   Used by the poll loop of Hydra_obs.Runtime. The runtime lock is
   released around the nanosleep so the sleeping poll domain never
   stalls a stop-the-world minor collection of the worker domains —
   which is the whole reason this is a C stub rather than a busy
   loop. Interrupted sleeps
   (EINTR) resume until the deadline passes. */

#include <caml/signals.h>
#include <errno.h>

CAMLprim value hydra_obs_sleep_ns(value ns)
{
  struct timespec req, rem;
  intnat n = Long_val(ns);
  if (n <= 0) return Val_unit;
  req.tv_sec = n / 1000000000;
  req.tv_nsec = n % 1000000000;
  caml_enter_blocking_section();
  while (nanosleep(&req, &rem) == -1 && errno == EINTR)
    req = rem;
  caml_leave_blocking_section();
  return Val_unit;
}
