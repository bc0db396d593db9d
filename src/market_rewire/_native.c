/* Pair-interleaved DTW, the recurrence of dtw.py for many pairs at once, the
 * z-scoring of a run's windows, the edge search that networks.day_metrics
 * reads from its distances, and the writer of export.py's snapshot files:
 * the library's four exports, dtw_pairs, dtw_block, dtw_edges and
 * write_files, which _native.py loads all or none.
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
 * each other's latency. A group's windows are copied in by runs of pairs
 * (a, b), (a, b + 1), .., as np.triu_indices mostly orders them, and its
 * indices checked once a run. A short last group repeats its last pair and
 * keeps only its own results.
 *
 * Each cell takes fabs(p - q) + min(left, min(up, diag)): the scalar loop's
 * elementary operations on the same values, so the results agree bitwise.
 * Minima are exact and no value is NaN, so their order does not matter. No
 * multiply occurs, so no fused multiply-add can be contracted.
 *
 * The caller passes `work`, (4w + 2) * dtw_group doubles, and `band` in
 * 0 .. w (w for no band). It returns -1, having written part of `out` at most,
 * if an index is outside 0 .. n-1, and 0 otherwise.
 *
 * dtw_block z-scores a block's windows straight from the panel's rows with
 * the steps of preprocess._zscore_flags, numpy's pairwise sums included, so
 * every z-score has the bits of the numpy path, and then sweeps them as
 * dtw_pairs does. Its squares and signs are multiplies: the library is
 * built with -ffp-contract=off, so that none is fused into an add.
 */
#include <errno.h>
#include <fcntl.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <unistd.h>

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

static inline __attribute__((always_inline)) int
sweep(const double *Z, int64_t days, int64_t w, int64_t n, const int64_t *ii, const int64_t *jj,
      int64_t k, int64_t band, double *work, double *out)
{
    double *P = work, *Q = P + w * GROUP;
    for (int64_t d = 0; d < days; d++, Z += w * n, out += k) {
        for (int64_t start = 0; start < k; start += GROUP) {
            double *prev = Q + w * GROUP, *cur = prev + (w + 1) * GROUP;
            int64_t m = k - start < GROUP ? k - start : GROUP;
            /* Lanes g .. g + r - 1 whose pairs are (a, b), (a, b + 1), ..
             * (a, b + r - 1), as np.triu_indices mostly gives them, take one
             * broadcast of each row's Z[a] and one slice Z[b .. b + r) of it.
             * The lanes past a short group's end repeat its last pair, each
             * a run of one. */
            for (int g = 0, r = 1; g < GROUP; g += r) {
                int64_t pair = start + (g < m ? g : m - 1), a = ii[pair], b = jj[pair];
                if (a < 0 || a >= n || b < 0 || b >= n)
                    return -1;
                for (r = 1; g + r < m && ii[pair + r] == a && jj[pair + r] == b + r; r++)
                    ;
                if (b + r > n)
                    return -1;
                for (int64_t i = 0; i < w; i++) {
                    const double x = Z[i * n + a], *y = Z + i * n + b;
                    double *p = P + i * GROUP + g, *q = Q + i * GROUP + g;
                    for (int t = 0; t < r; t++) {
                        p[t] = x;
                        q[t] = y[t];
                    }
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

CLONES
int dtw_pairs(const double *Z, int64_t days, int64_t w, int64_t n, const int64_t *ii,
              const int64_t *jj, int64_t k, int64_t band, double *work, double *out)
{
    return sweep(Z, days, w, n, ii, jj, k, band, work, out);
}

/* For every a < n, numpy's pairwise sum of the m <= 128 values x[i n + a],
 * i < m, or of their squares, into s[a]: one by one below 8 values, else in
 * 8 interleaved sums, added up as ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)),
 * and then the m % 8 values left, one by one. r holds 8n doubles. Each lane
 * a takes numpy's steps on its own values, so the loops over a vectorise. */
static inline __attribute__((always_inline)) void
sums(const double *x, int64_t n, int64_t m, int square, double *s, double *r)
{
    int64_t i = 0;
    if (m < 8) {
        for (int64_t a = 0; a < n; a++)
            s[a] = 0.0;
    } else {
        for (int j = 0; j < 8; j++)
            for (int64_t a = 0; a < n; a++) {
                double v = x[j * n + a];
                r[j * n + a] = square ? v * v : v;
            }
        for (i = 8; i < m - m % 8; i += 8)
            for (int j = 0; j < 8; j++)
                for (int64_t a = 0; a < n; a++) {
                    double v = x[(i + j) * n + a];
                    r[j * n + a] += square ? v * v : v;
                }
        for (int64_t a = 0; a < n; a++) {
            const double *q = r + a;
            s[a] = ((q[0] + q[n]) + (q[2 * n] + q[3 * n])) + ((q[4 * n] + q[5 * n]) + (q[6 * n] + q[7 * n]));
        }
    }
    for (; i < m; i++)
        for (int64_t a = 0; a < n; a++) {
            double v = x[i * n + a];
            s[a] += square ? v * v : v;
        }
}

/* sums for any m: above 128 values, numpy sums two halves, the first rounded
 * down to a multiple of 8, and adds them. r holds (8 + the bit length of m) n
 * doubles: each level below the first keeps one half's sums. */
static void pairwise(const double *x, int64_t n, int64_t m, int square, double *s, double *r)
{
    if (m <= 128) {
        if (square)
            sums(x, n, m, 1, s, r);
        else
            sums(x, n, m, 0, s, r);
        return;
    }
    int64_t half = m / 2;
    half -= half % 8;
    pairwise(x, n, half, square, s, r);
    pairwise(x + half * n, n, m - half, square, r, r + n);
    for (int64_t a = 0; a < n; a++)
        s[a] += r[a];
}

/* A block of a run in one call: for every date d < days and asset a < n,
 * the window of the w values of column a of `values`, a C-contiguous
 * (dates, n) array of float64, in rows start + d - w + 1 .. start + d,
 * z-scored by the steps of preprocess._zscore_flags and times signs[a] into
 * Z[d][.][a], Z being (days, w, n), and its flags into flags[d][a]; then,
 * unless a window's mean or std is not finite, the DTW distances of
 * dtw_pairs from Z into out. The mean is the pairwise sum, added to 0.0,
 * over w; the std the square root of the same sum of the squared deviations
 * over w - 1. A window is constant, flag 1, when every value equals its
 * first (0.0 equals -0.0) or its std is 0.0, and its z-scores are then 0.0
 * times the sign; flag 2 marks a mean or std that is not finite.
 *
 * The caller passes start >= w - 1 and start + days no larger than the
 * dates, and `work` of (4w + 2) * dtw_group doubles, and at least
 * (10 + the bit length of w) * n, shared by the z-scores and then the
 * sweep; `band` and `out` are dtw_pairs'. It returns 1, having swept
 * nothing, if a window's mean or std is not finite, and otherwise what
 * dtw_pairs returns. */
CLONES
int dtw_block(const double *values, int64_t n, int64_t start, int64_t days, int64_t w,
              const double *signs, double *Z, uint8_t *flags, const int64_t *ii, const int64_t *jj,
              int64_t k, int64_t band, double *work, double *out)
{
    double *mean = work, *sd = work + n, *r = work + 2 * n;
    int all = 0;
    for (int64_t d = 0; d < days; d++) {
        const double *x = values + (start + d - w + 1) * n;
        double *z = Z + d * w * n;
        uint8_t *f = flags + d * n;
        for (int64_t a = 0; a < n; a++)
            f[a] = 1;
        for (int64_t i = 1; i < w; i++)
            for (int64_t a = 0; a < n; a++)
                f[a] &= x[i * n + a] == x[a];
        if (w <= 128)
            sums(x, n, w, 0, mean, r);
        else
            pairwise(x, n, w, 0, mean, r);
        for (int64_t a = 0; a < n; a++)
            mean[a] = (0.0 + mean[a]) / (double)w;
        for (int64_t i = 0; i < w; i++)
            for (int64_t a = 0; a < n; a++)
                z[i * n + a] = x[i * n + a] - mean[a];
        if (w <= 128)
            sums(z, n, w, 1, sd, r);
        else
            pairwise(z, n, w, 1, sd, r);
        for (int64_t a = 0; a < n; a++) {
            sd[a] = sqrt((0.0 + sd[a]) / (double)(w - 1));
            f[a] |= (sd[a] == 0.0) | (isfinite(mean[a]) && isfinite(sd[a]) ? 0 : 2);
            all |= f[a];
        }
        for (int64_t i = 0; i < w; i++)
            for (int64_t a = 0; a < n; a++) {
                double q = z[i * n + a] / sd[a];
                z[i * n + a] = (f[a] & 1 ? 0.0 : q) * signs[a];
            }
    }
    if (all & 2)
        return 1;
    return sweep(Z, days, w, n, ii, jj, k, band, work, out);
}

/* The root of v's tree, halving the path on the way. Every node's parent is
 * no larger than itself, so a root is the lowest node of its tree. */
static int64_t root(int64_t *parent, int64_t v)
{
    while (parent[v] != v)
        v = parent[v] = parent[parent[v]];
    return v;
}

/* Bits t of bits[0], [1] and [2]: whether pair t < r <= 64 of x, with
 * previous distances y or none, is a co-occurrence, red or blue edge. Built
 * a word at a time, the comparisons vectorise and no branch depends on them. */
static inline __attribute__((always_inline)) void
edge_bits(const double *x, const double *y, int64_t r, double theta, double delta, uint64_t bits[3])
{
    uint64_t near = 0, red = 0, blue = 0;
    for (int64_t t = 0; t < r; t++)
        near |= (uint64_t)(x[t] < theta) << t;
    if (y)
        for (int64_t t = 0; t < r; t++) {
            red |= (uint64_t)(x[t] - y[t] > delta) << t;
            blue |= (uint64_t)(x[t] - y[t] < -delta) << t;
        }
    bits[0] = near;
    bits[1] = red;
    bits[2] = blue;
}

/* The edge search of networks.day_metrics over a block of dates: dist is
 * (days, m), the distances on each date of the pairs (ii[p], jj[p]) of n
 * assets, and prev the m distances of the date before, or NULL, which leaves
 * the first date's red and blue runs empty. A pair is a co-occurrence edge
 * on date d where dist[d][p] < theta, red where its change from the date
 * before exceeds delta and blue where it is below -delta: the comparisons of
 * the numpy path on the same float64 values, so both find the same edges.
 *
 * With at NULL, the call writes starts[0 .. 3 days], where the run of
 * network c (co-occurrence, red, blue) on date d starts among the block's
 * edges, c-major, and where the last ends. Given at, of starts[3 days]
 * entries, a second call with the same arrays fills each run with its pair
 * positions p, ascending, and counts, (3, days, n): row (0, d) the size of
 * each component of date d's co-occurrence network at its lowest node and 0
 * elsewhere, rows (1, d) and (2, d) each node's red and blue degree. It
 * returns -1, having written part of the outputs at most, if an edge's pair
 * index is outside 0 .. n-1, and 0 otherwise. */
CLONES
int dtw_edges(const double *dist, const double *prev, int64_t days, int64_t m, int64_t n,
              const int64_t *ii, const int64_t *jj, double theta, double delta,
              int64_t *starts, int64_t *at, int64_t *counts)
{
    uint64_t bits[3];
    if (at == NULL) {
        for (int64_t q = 0; q <= 3 * days; q++)
            starts[q] = 0;
        for (int64_t d = 0; d < days; d++) {
            const double *x = dist + d * m, *y = d ? x - m : prev;
            for (int64_t p = 0; p < m; p += 64) {
                edge_bits(x + p, y ? y + p : NULL, m - p < 64 ? m - p : 64, theta, delta, bits);
                for (int c = 0; c < 3; c++)
                    starts[1 + c * days + d] += __builtin_popcountll(bits[c]);
            }
        }
        for (int64_t q = 1; q <= 3 * days; q++)
            starts[q] += starts[q - 1];
        return 0;
    }
    for (int64_t d = 0; d < days; d++) {
        const double *x = dist + d * m, *y = d ? x - m : prev;
        int64_t *end[3] = {at + starts[d], at + starts[days + d], at + starts[2 * days + d]};
        for (int64_t p = 0; p < m; p += 64) {
            edge_bits(x + p, y ? y + p : NULL, m - p < 64 ? m - p : 64, theta, delta, bits);
            for (int c = 0; c < 3; c++)
                for (uint64_t b = bits[c]; b; b &= b - 1)
                    *end[c]++ = p + __builtin_ctzll(b);
        }
        int64_t *parent = counts + d * n;
        for (int64_t v = 0; v < n; v++)
            parent[v] = v;
        for (const int64_t *e = at + starts[d]; e < end[0]; e++) {
            int64_t a = ii[*e], b = jj[*e];
            if (a < 0 || a >= n || b < 0 || b >= n)
                return -1;
            a = root(parent, a);
            b = root(parent, b);
            if (a < b)
                parent[b] = a;
            else
                parent[a] = b;
        }
        /* Each node's parent becomes its root, lower nodes first; then each
         * root takes its component's size, held negated while it grows. */
        for (int64_t v = 0; v < n; v++)
            parent[v] = parent[parent[v]];
        for (int64_t v = 0; v < n; v++) {
            int64_t r = parent[v];
            parent[v] = 0;
            parent[r]--;
        }
        for (int64_t v = 0; v < n; v++)
            parent[v] = -parent[v];
        for (int c = 1; c < 3; c++) {
            int64_t *degree = counts + (c * days + d) * n;
            for (int64_t v = 0; v < n; v++)
                degree[v] = 0;
            for (const int64_t *e = at + starts[c * days + d]; e < end[c]; e++) {
                int64_t a = ii[*e], b = jj[*e];
                if (a < 0 || a >= n || b < 0 || b >= n)
                    return -1;
                degree[a]++;
                degree[b]++;
            }
        }
    }
    return 0;
}

/* Piece i of `table`, bytes offsets[i] .. offsets[i + 1] - 1, copied to p;
 * the byte after the copy. */
static char *piece(char *p, const char *table, const int64_t *offsets, int32_t i)
{
    size_t size = (size_t)(offsets[i + 1] - offsets[i]);
    memcpy(p, table + offsets[i], size);
    return p + size;
}

/* The snapshot files of export.py's piece table, in the directory dirfd:
 * file f < files holds pieces[starts[f]] .. pieces[starts[f + 1] - 1] of
 * `table`, in that order, and is named by the pieces names[2f] and
 * names[2f + 1], the second ending in a NUL. Each file's bytes are copied
 * into buf, its name after them, and written to the file as
 * export.write_file writes them: opened without O_TRUNC, a new file with
 * mode 0666 less the umask, overwritten, and cut at the new end only where
 * a seek to its end reads it longer. Calls that a signal interrupts are
 * retried. It returns -1 when every file is written; else the index of the
 * file that failed, with errno in *error, having written the files before
 * it and part of that one at most. With buf NULL, the call writes nothing
 * and returns the bytes buf must hold: the most that a file and its name
 * take. */
int64_t write_files(int64_t dirfd, const char *table, const int64_t *offsets, const int32_t *pieces,
                    const int64_t *starts, const int32_t *names, int64_t files, char *buf, int64_t *error)
{
    if (buf == NULL) {
        int64_t most = 0;
        for (int64_t f = 0; f < files; f++) {
            int64_t size = 0;
            for (int64_t q = starts[f]; q < starts[f + 1]; q++)
                size += offsets[pieces[q] + 1] - offsets[pieces[q]];
            for (int k = 0; k < 2; k++)
                size += offsets[names[2 * f + k] + 1] - offsets[names[2 * f + k]];
            most = size > most ? size : most;
        }
        return most;
    }
    for (int64_t f = 0; f < files; f++) {
        char *end = buf;
        for (int64_t q = starts[f]; q < starts[f + 1]; q++)
            end = piece(end, table, offsets, pieces[q]);
        piece(piece(end, table, offsets, names[2 * f]), table, offsets, names[2 * f + 1]);
        const size_t size = (size_t)(end - buf);
        int fd;
        do
            fd = openat((int)dirfd, end, O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
        while (fd < 0 && errno == EINTR);
        if (fd < 0) {
            *error = errno;
            return f;
        }
        int ok = 1;
        for (const char *p = buf; ok && p < end;) {
            ssize_t n = write(fd, p, (size_t)(end - p));
            if (n >= 0)
                p += n;
            else
                ok = errno == EINTR;
        }
        if (ok) {
            off_t at = lseek(fd, 0, SEEK_END);
            ok = at >= 0;
            while (ok && (size_t)at > size && ftruncate(fd, (off_t)size) < 0)
                ok = errno == EINTR;
        }
        if (!ok) {
            *error = errno;
            close(fd);
            return f;
        }
        if (close(fd) < 0 && errno != EINTR) {
            *error = errno;
            return f;
        }
    }
    return -1;
}
