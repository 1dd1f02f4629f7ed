/* Twisted convolution of two dense complex128 boxes, for algebra.mul.
 *
 * a is ah x aw, b is bh x bw, tw[c][u] is the phase of a's column c
 * crossing b's row u, y is bw cells of scratch, and out, zeroed by the
 * caller, is (ah + bh - 1) x (aw + bw - 1).  Complex numbers are (re, im)
 * pairs of doubles.  Each product is rounded as CPython's complex multiply
 * and added as CPython adds, so the result is mul_reference's bit for bit
 * when built without floating-point contraction.
 *
 * Order.  b's rows u are taken from last to first, and for each the columns
 * c of a in ascending order: y = tw[c][u] * b[u][lo:hi] is formed once, and
 * a[i][c] * y is added into output row i + u for every nonzero a[i][c].  An
 * output cell (r, s) meets row u only through i = r - u, so descending u is
 * ascending i, and within one u its terms come in ascending c: a's nonzero
 * cells in row-major order, the order in which mul_reference adds.
 *
 * Span.  [lo, hi) is the nonzero span of b's row u; an all-zero row is
 * skipped.  mul_reference visits no zero cell of b.  A finite x times a
 * zero inside the span adds a zero, which leaves a nonzero sum's bits as
 * they are (a zero sum is set to +0 by the caller's crop); a non-finite x
 * skips those cells too, since x * 0 would be NaN there.
 *
 * Cost: nnz(a) x (sum over u of hi - lo) complex multiply-adds, plus one
 * scan of a's box per nonzero row of b.
 */
#include <math.h>

void twmul(const double *restrict a, long ah, long aw,
           const double *restrict b, long bh, long bw,
           const double *restrict tw, double *restrict y, double *restrict out)
{
    long ow = 2 * (aw + bw - 1);
    for (long u = bh - 1; u >= 0; u--) {
        const double *bu = b + 2 * u * bw;
        long lo = 0, hi = bw;
        while (lo < hi && bu[2 * lo] == 0 && bu[2 * lo + 1] == 0)
            lo++;
        while (hi > lo && bu[2 * hi - 2] == 0 && bu[2 * hi - 1] == 0)
            hi--;
        if (lo == hi)
            continue;
        const double *bs = bu + 2 * lo;
        long n = 2 * (hi - lo);
        for (long c = 0; c < aw; c++) {
            long i = 0;
            while (i < ah && a[2 * (i * aw + c)] == 0 && a[2 * (i * aw + c) + 1] == 0)
                i++;
            if (i == ah)
                continue;
            double tr = tw[2 * (c * bh + u)], ti = tw[2 * (c * bh + u) + 1];
            for (long v = 0; v < n; v += 2) {
                y[v] = tr * bs[v] - ti * bs[v + 1];
                y[v + 1] = tr * bs[v + 1] + ti * bs[v];
            }
            for (; i < ah; i++) {
                double xr = a[2 * (i * aw + c)], xi = a[2 * (i * aw + c) + 1];
                if (xr == 0 && xi == 0)
                    continue;
                double *o = out + (i + u) * ow + 2 * (c + lo);
                if (isfinite(xr) && isfinite(xi)) {
                    for (long v = 0; v < n; v += 2) {
                        o[v] += xr * y[v] - xi * y[v + 1];
                        o[v + 1] += xr * y[v + 1] + xi * y[v];
                    }
                } else {
                    for (long v = 0; v < n; v += 2) {
                        if (bs[v] == 0 && bs[v + 1] == 0)
                            continue;
                        o[v] += xr * y[v] - xi * y[v + 1];
                        o[v + 1] += xr * y[v + 1] + xi * y[v];
                    }
                }
            }
        }
    }
}
