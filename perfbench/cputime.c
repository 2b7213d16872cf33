/* CPU time of the calling thread, in seconds (CLOCK_THREAD_CPUTIME_ID):
   nanosecond resolution, including the time since the last tick, which
   /proc/thread-self/schedstat does not show. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_thread_cpu(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

value perfbench_thread_cpu_byte(value unit)
{
  return caml_copy_double(perfbench_thread_cpu(unit));
}
