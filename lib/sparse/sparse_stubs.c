/* Inner-loop kernels for the sparse numeric core (Vec / Csr).
 *
 * All loops run in ascending index order so results are bit-identical
 * to the sequential OCaml loops they replace.  None allocate on the
 * OCaml heap or raise, so the externals are [@@noalloc]; the hot
 * entries take unboxed doubles, with _byte wrappers for bytecode. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>

#define VEC(v) ((double *)Caml_ba_data_val(v))
#define IVEC(v) ((intnat *)Caml_ba_data_val(v))
#define DIM(v) (Caml_ba_array_val(v)->dim[0])

CAMLprim double rc_vec_dot(value va, value vb)
{
    const double *a = VEC(va), *b = VEC(vb);
    intnat n = DIM(va);
    double s = 0.0;
    for (intnat i = 0; i < n; i++)
        s += a[i] * b[i];
    return s;
}

CAMLprim value rc_vec_dot_byte(value va, value vb)
{
    return caml_copy_double(rc_vec_dot(va, vb));
}

/* y += a * x */
CAMLprim value rc_vec_axpy(double a, value vx, value vy)
{
    const double *x = VEC(vx);
    double *y = VEC(vy);
    intnat n = DIM(vy);
    for (intnat i = 0; i < n; i++)
        y[i] += a * x[i];
    return Val_unit;
}

CAMLprim value rc_vec_axpy_byte(value a, value vx, value vy)
{
    return rc_vec_axpy(Double_val(a), vx, vy);
}

/* y -= a * x */
CAMLprim value rc_vec_axmy(double a, value vx, value vy)
{
    const double *x = VEC(vx);
    double *y = VEC(vy);
    intnat n = DIM(vy);
    for (intnat i = 0; i < n; i++)
        y[i] -= a * x[i];
    return Val_unit;
}

CAMLprim value rc_vec_axmy_byte(value a, value vx, value vy)
{
    return rc_vec_axmy(Double_val(a), vx, vy);
}

/* p = z + b * p */
CAMLprim value rc_vec_xpby(value vz, double b, value vp)
{
    const double *z = VEC(vz);
    double *p = VEC(vp);
    intnat n = DIM(vp);
    for (intnat i = 0; i < n; i++)
        p[i] = z[i] + b * p[i];
    return Val_unit;
}

CAMLprim value rc_vec_xpby_byte(value vz, value b, value vp)
{
    return rc_vec_xpby(vz, Double_val(b), vp);
}

/* out = a .* b */
CAMLprim value rc_vec_had(value va, value vb, value vout)
{
    const double *a = VEC(va), *b = VEC(vb);
    double *out = VEC(vout);
    intnat n = DIM(vout);
    for (intnat i = 0; i < n; i++)
        out[i] = a[i] * b[i];
    return Val_unit;
}

/* r = b - r */
CAMLprim value rc_vec_rsub(value vb, value vr)
{
    const double *b = VEC(vb);
    double *r = VEC(vr);
    intnat n = DIM(vr);
    for (intnat i = 0; i < n; i++)
        r[i] = b[i] - r[i];
    return Val_unit;
}

/* y = A x for CSR (row_ptr, col_idx, values); row accumulation is a
 * single left-to-right sum starting from 0.0, so it is bit-identical to
 * the plain OCaml row loop the tests hold it to. */
CAMLprim value rc_csr_spmv(value vrp, value vci, value vvals, value vx, value vy)
{
    const intnat *rp = IVEC(vrp), *ci = IVEC(vci);
    const double *vals = VEC(vvals), *x = VEC(vx);
    double *y = VEC(vy);
    intnat n_rows = DIM(vy);
    for (intnat i = 0; i < n_rows; i++) {
        double acc = 0.0;
        intnat hi = rp[i + 1];
        for (intnat k = rp[i]; k < hi; k++)
            acc += vals[k] * x[ci[k]];
        y[i] = acc;
    }
    return Val_unit;
}
