/* Atomic accessors for the shared-memory counter segment (shm.ml).
 *
 * The segment is an mmap'd file of native-int cells shared between the
 * supervisor, its worker processes, and read-only observers
 * (`rotary_cli top`).  Seqlock consistency needs real load-acquire /
 * store-release ordering across processes; plain Bigarray accesses
 * only promise per-access atomicity on x86, so every cell access goes
 * through these stubs.
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

CAMLprim value rc_shm_get(value ba, value i)
{
  intnat *p = (intnat *) Caml_ba_data_val(ba);
  return Val_long(__atomic_load_n(&p[Long_val(i)], __ATOMIC_ACQUIRE));
}

CAMLprim value rc_shm_set(value ba, value i, value v)
{
  intnat *p = (intnat *) Caml_ba_data_val(ba);
  __atomic_store_n(&p[Long_val(i)], Long_val(v), __ATOMIC_RELEASE);
  return Val_unit;
}
