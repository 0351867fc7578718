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
