/* Twisted convolution of two dense complex128 boxes, for algebra.mul.
 *
 * a is ah x aw, b is bh x bw, tw[c][u] is the phase of a's column c
 * crossing b's row u, y is aw x bh x bw scratch, and out, zeroed by the
 * caller, is (ah + bh - 1) x (aw + bw - 1).  Complex numbers are (re, im)
 * pairs of doubles.  Each product is rounded as CPython's complex multiply
 * and added as CPython adds, and a's nonzero cells are taken in row-major
 * order, the order in which mul_reference adds into every output cell, so
 * the result is mul_reference's bit for bit when built without floating-
 * point contraction.  A non-finite cell of a skips b's zero cells, which
 * mul_reference never visits: x * 0 would be NaN there.
 */
#include <math.h>

void twmul(const double *restrict a, long ah, long aw,
           const double *restrict b, long bh, long bw,
           const double *restrict tw, double *restrict y, double *restrict out)
{
    long n = 2 * bh * bw, ow = 2 * (aw + bw - 1);
    for (long c = 0; c < aw; c++) {           /* y[c] = tw[c][u] * b[u][v] */
        long i = 0;
        while (i < ah && a[2 * (i * aw + c)] == 0 && a[2 * (i * aw + c) + 1] == 0)
            i++;
        for (long u = 0; i < ah && u < bh; u++) {
            double tr = tw[2 * (c * bh + u)], ti = tw[2 * (c * bh + u) + 1];
            const double *bu = b + 2 * u * bw;
            double *yu = y + c * n + 2 * u * bw;
            for (long v = 0; v < 2 * bw; v += 2) {
                yu[v] = tr * bu[v] - ti * bu[v + 1];
                yu[v + 1] = tr * bu[v + 1] + ti * bu[v];
            }
        }
    }
    for (long i = 0; i < ah; i++)
        for (long c = 0; c < aw; c++) {
            double xr = a[2 * (i * aw + c)], xi = a[2 * (i * aw + c) + 1];
            if (xr == 0 && xi == 0)
                continue;
            int finite = isfinite(xr) && isfinite(xi);
            for (long u = 0; u < bh; u++) {
                const double *yu = y + c * n + 2 * u * bw, *bu = b + 2 * u * bw;
                double *o = out + (i + u) * ow + 2 * c;
                for (long v = 0; v < 2 * bw; v += 2) {
                    if (!finite && bu[v] == 0 && bu[v + 1] == 0)
                        continue;
                    o[v] += xr * yu[v] - xi * yu[v + 1];
                    o[v + 1] += xr * yu[v + 1] + xi * yu[v];
                }
            }
        }
}
