/* Compiled mirrors of recipnet.simulate._advance, of the integer cells
 * of recipnet.io._write_chunks and io.read_table, of recipnet.branching's
 * MBI engine and limit-law chain, and of recipnet.embedding.embedding_chains.
 *
 * _advance (Python) is the statement of the graph transition; rn_advance
 * repeats it line for line on the same arrays: the same branch order, the
 * same double comparisons and the same truncations, so both produce the
 * same graph from the same uniforms, bit for bit. Change the two together.
 * rn_format_int_rows writes the bytes that the %s row template of
 * _write_chunks writes for integer cells, str() of each, reading every
 * column where it lies (any item size, sign and stride), and
 * rn_parse_int_rows reads those bytes back as read_table's loadtxt does,
 * into one array per column that the caller asks for.
 *
 * rn_mbi_batch repeats the fixed-horizon loop of simulate_mbi_batch and
 * rn_mbi_chunk the killed jump chain of _sample_chunk (with _tally_chunk's
 * tally, or the per-row outputs), both around rn_event, the mirror of
 * branching._event; rn_chains repeats embedding_chains. They draw from the
 * caller's numpy Generator through its bitgen_t with numpy's own functions
 * (libnpyrandom.a) in the numpy code's order, so they leave the same counts
 * and generator state: per iteration, rn_mbi_batch takes an exponential and
 * a uniform fill (random_standard_exponential_fill and _uniform_fill, as
 * Generator.standard_exponential and .random do) and rn_mbi_chunk a uniform
 * fill; next_double (one uniform of the stream) draws rn_mbi_chunk's labels
 * and initial states, and rn_chains' labels and coins between its
 * exponential fills per replicate and jump. The caller holds the lock.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off -I<numpy include> _kernel.c
 * libnpyrandom.a -Wl,--exclude-libs,ALL -lm. Contracting u1*(E + delta*V),
 * or c + w1*rr in rn_event, into a fused multiply-add would change the
 * draws. Every exported symbol carries the rn_ prefix (--exclude-libs
 * hides numpy's), so none can clash with a symbol of another loaded
 * library.
 */

#include <stdint.h>
#include <string.h>
#include "numpy/random/bitgen.h"

#define RN_PREFETCH_ROWS 8

/* node_group holds int8 labels when wide == 0, int32 labels otherwise */
static inline int32_t rn_group(const void *node_group, int32_t wide, int64_t v)
{
    return wide ? ((const int32_t *)node_group)[v] : ((const int8_t *)node_group)[v];
}

/* params.draw_groups: searchsorted(cum_pi, u, side="right"), clamped to
 * K - 1. cum_pi is nondecreasing, so that is the count of its first K - 1
 * entries that are <= u: a binary search whose steps add rather than
 * branch, since the groups are drawn at random. */
static inline int32_t rn_draw_group(const double *cum_pi, int32_t K, double u)
{
    int32_t r = 0, n = K - 1;
    if (n == 0)
        return 0;
    while (n > 1) {
        int32_t half = n / 2;
        r += (cum_pi[r + half] <= u) * half;
        n -= half;
    }
    return r + (cum_pi[r] <= u);
}

static inline void rn_set_group(void *node_group, int32_t wide, int64_t v, int32_t g)
{
    if (wide)
        ((int32_t *)node_group)[v] = g;
    else
        ((int8_t *)node_group)[v] = (int8_t)g;
}

/* Apply one transition per row of the (m, 5) uniform block u.
 *
 * counts holds (edge_count, n_nodes, reciprocal_count) on entry and is
 * updated on return. The arrays must have room for m more nodes (1-based
 * ids) and 2m more edges. */
void rn_advance(const double *u, int64_t m, double alpha, double delta,
                const double *cum_pi, const double *rho, int32_t K,
                int32_t *in_pool, int32_t *out_pool,
                int32_t *in_deg, int32_t *out_deg,
                void *node_group, int32_t wide,
                int64_t *g_in, int64_t *g_out, int64_t *g_nodes,
                int64_t *counts)
{
    int64_t E = counts[0];
    int64_t V = counts[1];
    int64_t rc = counts[2];
    for (int64_t i = 0; i < m; i++) {
        const double *row = u + 5 * i;
        if (i + RN_PREFETCH_ROWS < m) {
            /* the pool entry a later row will probably read */
            const double *ahead = row + 5 * RN_PREFETCH_ROWS;
            const int32_t *pool = ahead[0] < alpha ? in_pool : out_pool;
            __builtin_prefetch(pool + (int64_t)(ahead[2] * (double)E));
        }
        int32_t r = rn_draw_group(cum_pi, K, row[3]);

        int64_t w = V + 1;
        int64_t v;
        int32_t mg;
        if (row[0] < alpha) {
            /* new node w sends (w, v); v by in-degree preference */
            if (row[1] * ((double)E + delta * (double)V) < (double)E)
                v = in_pool[(int64_t)(row[2] * (double)E)];
            else
                v = (int64_t)(row[2] * (double)V) + 1;
            mg = rn_group(node_group, wide, v);
            in_deg[v] += 1;
            in_pool[E] = (int32_t)v;
            out_pool[E] = (int32_t)w;
            g_in[mg] += 1;
            g_out[r] += 1;
            E += 1;
            if (row[4] < rho[(int64_t)mg * K + r]) {
                out_deg[v] += 1;
                in_pool[E] = (int32_t)w;
                out_pool[E] = (int32_t)v;
                g_in[r] += 1;
                g_out[mg] += 1;
                E += 1;
                rc += 1;
                in_deg[w] = 1;
            } else {
                in_deg[w] = 0;
            }
            out_deg[w] = 1;
        } else {
            /* new node w receives (v, w); v by out-degree preference */
            if (row[1] * ((double)E + delta * (double)V) < (double)E)
                v = out_pool[(int64_t)(row[2] * (double)E)];
            else
                v = (int64_t)(row[2] * (double)V) + 1;
            mg = rn_group(node_group, wide, v);
            out_deg[v] += 1;
            in_pool[E] = (int32_t)w;
            out_pool[E] = (int32_t)v;
            g_in[r] += 1;
            g_out[mg] += 1;
            E += 1;
            if (row[4] < rho[(int64_t)r * K + mg]) {
                in_deg[v] += 1;
                in_pool[E] = (int32_t)v;
                out_pool[E] = (int32_t)w;
                g_in[mg] += 1;
                g_out[r] += 1;
                E += 1;
                rc += 1;
                out_deg[w] = 1;
            } else {
                out_deg[w] = 0;
            }
            in_deg[w] = 1;
        }
        rn_set_group(node_group, wide, w, r);
        g_nodes[r] += 1;
        V += 1;
    }
    counts[0] = E;
    counts[1] = V;
    counts[2] = rc;
}


/* 10^0 to 10^19: a magnitude below 10^n has at most n digits */
static const uint64_t rn_pow10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, 10000000000000000000ULL};

/* "00" to "99": two digits per division by 100 */
static const char rn_digit_pairs[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The magnitude of cell i of a column described as rn_format_int_rows
 * reads it, with its sign in *neg. memcpy reads a cell at any alignment. */
static inline uint64_t rn_cell(const int64_t *col, int64_t i, int *neg)
{
    const char *at = (const char *)(intptr_t)col[0] + i * col[1];
    int64_t x;
    *neg = 0;
    switch (col[2] * 2 + col[3]) {     /* item size, then sign */
    case 2: { uint8_t v; memcpy(&v, at, 1); return v; }
    case 4: { uint16_t v; memcpy(&v, at, 2); return v; }
    case 8: { uint32_t v; memcpy(&v, at, 4); return v; }
    case 16: { uint64_t v; memcpy(&v, at, 8); return v; }
    case 3: { int8_t v; memcpy(&v, at, 1); x = v; break; }
    case 5: { int16_t v; memcpy(&v, at, 2); x = v; break; }
    case 9: { int32_t v; memcpy(&v, at, 4); x = v; break; }
    default: { int64_t v; memcpy(&v, at, 8); x = v; break; }
    }
    *neg = x < 0;
    /* in unsigned arithmetic, so INT64_MIN does not overflow */
    return x < 0 ? 0 - (uint64_t)x : (uint64_t)x;
}

/* Format rows of w integer cells as str() of each cell joined by ',' with
 * '\n' after every row: decimal digits, a leading '-' for a negative
 * value, no padding. Column j is cols[4j..4j+3]: the address of its first
 * cell, the bytes from one cell to the next (negative or 0 allowed), the
 * item size (1, 2, 4 or 8) and 1 if signed, 0 if not. buf must hold
 * rows * w * 21 bytes (20 for INT64_MIN, 1 for the separator). Returns
 * the bytes written. */
int64_t rn_format_int_rows(const int64_t *cols, int64_t rows, int32_t w, char *buf)
{
    char *p = buf;
    for (int64_t i = 0; i < rows; i++) {
        for (int32_t j = 0; j < w; j++) {
            int neg, n = 1;
            uint64_t mag = rn_cell(cols + 4 * j, i, &neg);
            while (n < 20 && mag >= rn_pow10[n])
                n++;
            *p = '-';
            p += neg;
            /* the n digits, from the right */
            char *d = p + n;
            for (; mag >= 100; mag /= 100) {
                d -= 2;
                memcpy(d, rn_digit_pairs + 2 * (mag % 100), 2);
            }
            if (mag >= 10)
                memcpy(d - 2, rn_digit_pairs + 2 * mag, 2);
            else
                d[-1] = (char)('0' + mag);
            p += n;
            *p++ = j + 1 < w ? ',' : '\n';
        }
    }
    return p - buf;
}


/* Parse what rn_format_int_rows writes: rows of w cells, each an optional
 * '-' and 1 to 18 decimal digits, with ',' between cells and '\n' after
 * every row. Cell j of row i goes to cols[j][i], or, where cols[j] is
 * NULL, is checked and dropped. Returns the number of rows, or -1 at the
 * first byte that does not fit ('\r', '+', a blank, a 19th digit, a
 * missing final newline, a wrong cell count, more than cap rows, ...),
 * in a dropped column too; io.read_table then reads the file with
 * loadtxt, which decides such input. 18 digits cannot overflow int64.
 * The final '\n' stops every digit run, so no byte past len is read. */
int64_t rn_parse_int_rows(const char *buf, int64_t len, int32_t w, int64_t cap,
                          int64_t *const *cols)
{
    const unsigned char *p = (const unsigned char *)buf, *end = p + len;
    int64_t rows = 0;
    if (len == 0 || end[-1] != '\n')
        return -1;
    for (; p < end; rows++) {
        if (rows == cap)
            return -1;
        for (int32_t j = 0; j < w; j++) {
            int neg = *p == '-';
            p += neg;
            const unsigned char *digits = p;
            uint64_t x = 0;     /* unsigned, so a long run wraps rather than overflows */
            for (unsigned d; (d = *p - (unsigned)'0') < 10; p++)
                x = x * 10 + d;
            if (p == digits || p - digits > 18 || *p++ != (j + 1 < w ? ',' : '\n'))
                return -1;
            if (cols[j] != NULL)
                cols[j][rows] = neg ? -(int64_t)x : (int64_t)x;
        }
    }
    return rows;
}


/* Generator.standard_exponential's and Generator.random's fills, linked
 * from numpy's libnpyrandom.a (declared in numpy/random/distributions.h,
 * which needs Python.h) */
void random_standard_exponential_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
void random_standard_uniform_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

/* branching._event: move (*a1, *a2) by the event x = u * (c + w1 + w2) >= c picks */
static inline void rn_event(double *a1, double *a2, double x, double c, double w1, double w2,
                            double rr, double rc)
{
    int is1 = x < c + w1;
    *a1 += (double)(is1 | (x < c + w1 + w2 * rc));
    *a2 += (double)((!is1) | (x < c + w1 * rr));
}

/* simulate_mbi_batch on R rows. n1 and n2 hold the initial states on entry
 * and the final counts on return; events and failed are written for every
 * row. work holds 6R doubles: running row j is row idx[j] of the batch, at
 * (a1[j], a2[j]) with left[j] still to wait, and e and u are its wait and
 * its event uniform. Every running row makes one event per iteration. */
void rn_mbi_batch(bitgen_t *bg, int64_t R, const int64_t *label, const double *t_ends,
                  const double *rho_row, const double *rho_col,
                  double alpha, double gamma, double delta, double event_budget,
                  int64_t *n1, int64_t *n2, int64_t *events, uint8_t *failed, double *work)
{
    int64_t *idx = (int64_t *)work, n = R;
    double *a1 = work + R, *a2 = a1 + R, *left = a2 + R, *e = left + R, *u = e + R;
    for (int64_t i = 0; i < R; i++) {
        idx[i] = i;
        a1[i] = (double)n1[i];
        a2[i] = (double)n2[i];
        left[i] = t_ends[i];
    }
    for (int64_t it = 0; n > 0; it++) {
        random_standard_exponential_fill(bg, n, e);
        random_standard_uniform_fill(bg, n, u);
        int over = (double)it >= event_budget;
        int64_t kept = 0;
        for (int64_t j = 0; j < n; j++) {
            int64_t i = idx[j], g = label[i];
            double x1 = a1[j], x2 = a2[j];
            double w1 = alpha * (x1 + delta), w2 = gamma * (x2 + delta), rate = w1 + w2;
            /* a rate-0 row (delta = 0 at state (0, 0)) is absorbing: its wait is inf */
            double l = left[j] - e[j] / rate;
            int go = l >= 0.0;
            /* stable compaction: row j moves down to kept, which advances
             * only if the row keeps running. Every row's outputs are
             * written, and written again when it stops, and every row makes
             * its event, which avoids a branch that the rows take at random. */
            idx[kept] = i;
            a1[kept] = x1;
            a2[kept] = x2;
            left[kept] = l;
            n1[i] = (int64_t)x1;
            n2[i] = (int64_t)x2;
            events[i] = it;
            failed[i] = (uint8_t)(go & over);
            rn_event(a1 + kept, a2 + kept, u[j] * rate, 0.0, w1, w2, rho_row[g], rho_col[g]);
            kept += go & !over;
        }
        n = kept;
    }
}

/* _sample_chunk on n replicates: the labels as params.draw_groups draws
 * them, the initial states as LimitPairSampler.draw_inits does (init_probs
 * is its (K, 3) table), then the killed jump chain, one uniform per
 * running row and iteration. Each row that stops goes to counts, laid out
 * as _tally_chunk's K*(kmax+1)*(lmax+1) grid cells, then the overflow of
 * each group, then the failed count; or with counts == NULL to n1, n2 and
 * failed. label has room for n labels in both modes; work holds 4n
 * doubles. */
void rn_mbi_chunk(bitgen_t *bg, int64_t n, const double *cum_pi, int32_t K,
                  const double *init_probs, double c_star,
                  const double *rho_row, const double *rho_col,
                  double alpha, double gamma, double delta, double event_budget,
                  int64_t kmax, int64_t lmax, int64_t *counts,
                  int64_t *label, int64_t *n1, int64_t *n2, uint8_t *failed, double *work)
{
    int64_t cells = K * (kmax + 1) * (lmax + 1), *idx = (int64_t *)work;
    double *a1 = work + n, *a2 = a1 + n, *u = a2 + n;
    for (int64_t i = 0; i < n; i++)
        label[i] = rn_draw_group(cum_pi, K, bg->next_double(bg->state));
    for (int64_t i = 0; i < n; i++) {
        double v = bg->next_double(bg->state);
        double p01 = init_probs[3 * label[i]], p10 = init_probs[3 * label[i] + 1];
        idx[i] = i;
        a1[i] = v >= p01;
        a2[i] = (v < p01) | (v >= p01 + p10);
    }
    /* running row j is row idx[j] of the chunk, at (a1[j], a2[j]); every
     * running row makes one event per iteration */
    for (int64_t it = 0; n > 0; it++) {
        random_standard_uniform_fill(bg, n, u);
        int over = (double)it >= event_budget;
        int64_t kept = 0;
        for (int64_t j = 0; j < n; j++) {
            int64_t i = idx[j], g = label[i];
            double x1 = a1[j], x2 = a2[j];
            double w1 = alpha * (x1 + delta), w2 = gamma * (x2 + delta);
            double x = u[j] * (c_star + w1 + w2);
            int go = x >= c_star;
            int64_t k = (int64_t)x1, l = (int64_t)x2;
            /* every row is recorded, which avoids a branch that the rows
             * take at random: a row that keeps running adds 0 to counts,
             * and its per-row outputs are written again when it stops */
            if (counts == NULL) {
                n1[i] = k;
                n2[i] = l;
                failed[i] = (uint8_t)(go & over);
            } else {
                int64_t cell = (k <= kmax) & (l <= lmax)
                    ? (g * (kmax + 1) + k) * (lmax + 1) + l : cells + g;
                counts[go & over ? cells + K : cell] += (!go) | over;
            }
            /* stable compaction, as in rn_mbi_batch */
            idx[kept] = i;
            a1[kept] = x1;
            a2[kept] = x2;
            rn_event(a1 + kept, a2 + kept, x, c_star, w1, w2, rho_row[g], rho_col[g]);
            kept += go & !over;
        }
        n = kept;
    }
}

/* embedding.embedding_chains on R replicates of n jumps, for alpha * delta
 * and gamma * delta > 0. labels, n1 and n2 are (R, n + 1) row-major, with
 * n1 and n2 at 1 in column 0 and 0 elsewhere on entry; work holds R + 2n
 * doubles. The draws are those of the numpy loop: R uniforms for the root
 * labels, then per jump j an (R, 2j) exponential block, filled row by row,
 * R uniforms for the children's groups and R for the reciprocation coins. */
void rn_chains(bitgen_t *bg, int64_t n, int64_t R, const double *cum_pi, int32_t K,
               const double *rho, double alpha, double gamma, double delta,
               int64_t *labels, int64_t *n1, int64_t *n2, double *work)
{
    int64_t *winner = (int64_t *)work, w = n + 1;
    double *e = work + R;
    for (int64_t i = 0; i < R; i++)
        labels[i * w] = rn_draw_group(cum_pi, K, bg->next_double(bg->state));
    for (int64_t j = 1; j <= n; j++) {
        for (int64_t i = 0; i < R; i++) {
            /* np.argmin: the first of the 2j clocks with the least time.
             * Every rate is > 0, so no time is NaN. The winner is random,
             * so the update is a select rather than a branch. */
            const int64_t *a1 = n1 + i * w, *a2 = n2 + i * w;
            random_standard_exponential_fill(bg, 2 * j, e);
            int64_t best = 0;
            double least = e[0] / (alpha * ((double)a1[0] + delta));
            for (int64_t c = 1; c < 2 * j; c++) {
                double rate = c < j ? alpha * ((double)a1[c] + delta)
                                    : gamma * ((double)a2[c - j] + delta);
                double t = e[c] / rate;
                int take = t < least;
                best = take ? c : best;
                least = take ? t : least;
            }
            winner[i] = best;
        }
        for (int64_t i = 0; i < R; i++)
            labels[i * w + j] = rn_draw_group(cum_pi, K, bg->next_double(bg->state));
        for (int64_t i = 0; i < R; i++) {
            int64_t type2 = winner[i] >= j, k = winner[i] - j * type2;
            int64_t m = labels[i * w + k], r = labels[i * w + j];
            int64_t rec = bg->next_double(bg->state) < (type2 ? rho[r * K + m] : rho[m * K + r]);
            n1[i * w + k] += !type2 | rec;
            n2[i * w + k] += type2 | rec;
            n1[i * w + j] = type2 | rec;
            n2[i * w + j] = !type2 | rec;
        }
    }
}
