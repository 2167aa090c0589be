/* Measurements of the system under test that the OCaml Unix library does
   not expose: a monotonic clock, wait4 with the child's own rusage, and
   the kernel clock-tick rate used by /proc/<pid>/stat. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <time.h>
#include <unistd.h>
#include <sys/types.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

value perfbench_monotonic_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

value perfbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}

/* Blocking wait for [pid]: (exit code or -signal, user s, system s,
   max RSS in KiB) of that child alone. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0, err = 0;
  struct rusage ru;
  pid_t r;
  pid_t pid = (pid_t)Long_val(vpid);
  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  if (r < 0) err = errno;
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(err));
  res = caml_alloc_tuple(4);
  Store_field(res, 0,
              Val_int(WIFEXITED(status)    ? WEXITSTATUS(status)
                      : WIFSIGNALED(status) ? -WTERMSIG(status)
                                            : -255));
  Store_field(res, 1,
              caml_copy_double((double)ru.ru_utime.tv_sec +
                               (double)ru.ru_utime.tv_usec * 1e-6));
  Store_field(res, 2,
              caml_copy_double((double)ru.ru_stime.tv_sec +
                               (double)ru.ru_stime.tv_usec * 1e-6));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
