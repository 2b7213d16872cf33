/* The band LU of Stencil5.solve: expand the five diagonals into the
   row-major band, eliminate without pivoting, substitute.

   Built -O3 -ffp-contract=off (see the dune file).  The float operations
   and their order are those of the column-oriented reference LU the tests
   hold this against ([Banded.solve_in_place] in test/): every band element
   receives its updates in ascending pivot order k, each as a - f*b with the
   product rounded before the subtraction.  -ffp-contract=off forbids fusing
   that pair into one FMA; vectorising the row update over j only regroups
   independent elements.  Never build this -ffast-math, -march=... or with
   any flag that lets the compiler reassociate or contract. */

#include <math.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define DATA(v) ((double *)Caml_ba_data_val(v))

/* A(i, j) -= f * A(k, j) over one row segment.  The two rows never
   overlap: row i starts (i - k) * 2m elements past row k, and a segment
   is at most m long. */
static inline void row_update(double *restrict ai, const double *restrict ak, double f,
                              long len)
{
  for (long j = 0; j < len; j++) ai[j] -= f * ak[j];
}

/* Returns -1, or the row of the first pivot with |pivot| < 1e-300 (the
   band and dst are then partly eliminated). */
static long factor_solve(const double *dl2, const double *dl1, const double *d0,
                         const double *du1, const double *du2, const double *rhs,
                         double *band, double *dst, long n, long m)
{
  const long w = 2 * m + 1;
  memset(band, 0, (size_t)(n * w) * sizeof(double));
  /* band[i*w + (j - i + m)] = A(i, j).  When m = 1 the +-1 and +-m
     diagonals coincide and A holds their sum; otherwise each entry is
     assigned, so a -0.0 keeps its sign as in the oracle. */
  for (long i = 0; i < n; i++) {
    double *b = band + i * w + m;
    if (m == 1) {
      if (i >= 1) b[-1] = dl1[i] + dl2[i];
      if (i + 1 < n) b[1] = du1[i] + du2[i];
    } else {
      if (i >= m) b[-m] = dl2[i];
      if (i >= 1) b[-1] = dl1[i];
      if (i + 1 < n) b[1] = du1[i];
      if (i + m < n) b[m] = du2[i];
    }
    b[0] = d0[i];
  }
  memmove(dst, rhs, (size_t)n * sizeof(double));
  for (long k = 0; k < n; k++) {
    /* Row r's entry A(r, j) lives at band[r*w + m - r + j]. */
    double *rk = band + k * w + m - k;
    const double pivot = rk[k];
    if (fabs(pivot) < 1e-300) return k;
    const long jmax = k + m < n - 1 ? k + m : n - 1;
    for (long i = k + 1; i <= jmax; i++) {
      double *ri = band + i * w + m - i;
      const double f = ri[k] / pivot;
      /* Skips exact zeros of either sign; NaN is not skipped. */
      if (f != 0.0) {
        ri[k] = f;
        row_update(ri + k + 1, rk + k + 1, f, jmax - k);
        dst[i] -= f * dst[k];
      }
    }
  }
  for (long i = n - 1; i >= 0; i--) {
    const double *ri = band + i * w + m - i;
    const long jmax = i + m < n - 1 ? i + m : n - 1;
    double s = dst[i];
    for (long j = i + 1; j <= jmax; j++) s -= ri[j] * dst[j];
    dst[i] = s / ri[i];
  }
  return -1;
}

value subscale_stencil5_factor_solve(value dl2, value dl1, value d0, value du1, value du2,
                                     value rhs, value band, value dst, value n, value m)
{
  return Val_long(factor_solve(DATA(dl2), DATA(dl1), DATA(d0), DATA(du1), DATA(du2),
                               DATA(rhs), DATA(band), DATA(dst), Long_val(n), Long_val(m)));
}

value subscale_stencil5_factor_solve_byte(value *argv, int argn)
{
  (void)argn;
  return subscale_stencil5_factor_solve(argv[0], argv[1], argv[2], argv[3], argv[4],
                                        argv[5], argv[6], argv[7], argv[8], argv[9]);
}
