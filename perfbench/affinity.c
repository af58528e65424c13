/* CPU pinning for the benchmark's closed loops (see run_phase in
   bench.ml); Linux only. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on, in increasing order. */
value bench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n = 0, k = 0;
  if (sched_getaffinity(0, sizeof set, &set) == 0) n = CPU_COUNT(&set);
  cpus = caml_alloc(n, 0);
  for (int c = 0; k < n && c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) Store_field(cpus, k++, Val_int(c));
  CAMLreturn(cpus);
}

/* Pin the calling thread to [cpu]; false when the kernel refuses. */
value bench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
