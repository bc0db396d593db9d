/* Pair-interleaved DTW: the recurrence of dtw.py for many pairs at once.
 *
 * dtw_pairs computes, for every date d < days and every p < k, the DTW
 * distance between column ii[p] and column jj[p] of Z[d], a C-contiguous
 * (days, w, n) array of float64, into out[d][p], out being (days, k): the
 * dates' arrays lie w * n doubles apart and their distances k apart. One
 * call thus covers a block of dates; days = 1 is one date.
 * The table is padded with a +inf border and a 0 corner, as in the numpy
 * wavefront, and swept one row at a time over two rolling rows. GROUP pairs
 * are swept together, laid out pair-minor, so the innermost loop runs across
 * pairs and is vectorised, and GROUP / lanes independent min/add chains hide
 * each other's latency. A short last group repeats its last pair and keeps
 * only its own results.
 *
 * Each cell takes fabs(p - q) + min(left, min(up, diag)): the scalar loop's
 * elementary operations on the same values, so the results agree bitwise.
 * Minima are exact and no value is NaN, so their order does not matter. No
 * multiply occurs, so no fused multiply-add can be contracted.
 *
 * The caller passes `work`, (4w + 2) * dtw_group doubles, and `band` in
 * 0 .. w (w for no band). It returns -1, having written part of `out` at most,
 * if an index is outside 0 .. n-1, and 0 otherwise.
 */
#include <math.h>
#include <stdint.h>

/* Pairs per group. The fastest of 300 200-asset, w = 20 days, in two runs on
 * a 2-core AVX-512 Xeon VM, took 0.93-0.95 ns per cell at 8, 0.23-0.28 at 16,
 * 0.20-0.26 at 32 and 0.24-0.25 at 64; at 20 assets 16, 32 and 64 were on par
 * (0.33-0.48). Without target_clones, 32 took 0.54 ns per cell. */
#define GROUP 32

const int64_t dtw_group = GROUP;

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#endif

/* Row i of the group's tables, cells lo .. hi, from row i - 1 in prev;
 * p holds the group's P[i - 1], Q its Q[0 .. w-1]. */
static inline __attribute__((always_inline)) void
dtw_row(const double *restrict p, const double *restrict Q, const double *restrict prev,
        double *restrict cur, int64_t lo, int64_t hi)
{
    double left[GROUP];
    for (int g = 0; g < GROUP; g++)
        left[g] = cur[(lo - 1) * GROUP + g] = INFINITY;
    for (int64_t j = lo; j <= hi; j++) {
        const double *q = Q + (j - 1) * GROUP, *up = prev + j * GROUP, *diag = up - GROUP;
        double *c = cur + j * GROUP;
        for (int g = 0; g < GROUP; g++) {
            double best = up[g] < diag[g] ? up[g] : diag[g];
            best = left[g] < best ? left[g] : best;
            left[g] = c[g] = fabs(p[g] - q[g]) + best;
        }
    }
}

CLONES
int dtw_pairs(const double *Z, int64_t days, int64_t w, int64_t n, const int64_t *ii,
              const int64_t *jj, int64_t k, int64_t band, double *work, double *out)
{
    double *P = work, *Q = P + w * GROUP;
    for (int64_t d = 0; d < days; d++, Z += w * n, out += k) {
        for (int64_t start = 0; start < k; start += GROUP) {
            double *prev = Q + w * GROUP, *cur = prev + (w + 1) * GROUP;
            int64_t m = k - start < GROUP ? k - start : GROUP;
            for (int g = 0; g < GROUP; g++) {
                int64_t pair = start + (g < m ? g : m - 1), a = ii[pair], b = jj[pair];
                if (a < 0 || a >= n || b < 0 || b >= n)
                    return -1;
                for (int64_t i = 0; i < w; i++) {
                    P[i * GROUP + g] = Z[i * n + a];
                    Q[i * GROUP + g] = Z[i * n + b];
                }
            }
            /* Both rows start +inf. A row writes cells lo - 1 .. hi, and the
             * next reads cells lo' - 1 .. hi' of it, with lo' >= lo and
             * hi' <= hi + 1: cell hi + 1 was never written by an earlier row,
             * whose hi was no larger. */
            for (int64_t x = 0; x < 2 * (w + 1) * GROUP; x++)
                prev[x] = INFINITY;
            for (int g = 0; g < GROUP; g++)
                prev[g] = 0.0;
            for (int64_t i = 1; i <= w; i++) {
                int64_t lo = i - band > 1 ? i - band : 1, hi = i + band < w ? i + band : w;
                dtw_row(P + (i - 1) * GROUP, Q, prev, cur, lo, hi);
                double *t = prev;
                prev = cur;
                cur = t;
            }
            for (int64_t g = 0; g < m; g++)
                out[start + g] = prev[w * GROUP + g];
        }
    }
    return 0;
}
