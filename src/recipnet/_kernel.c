/* Compiled mirrors of recipnet.simulate._advance, of the integer cells
 * of recipnet.io._write_chunks and io.read_table, and of
 * recipnet.branching's MBI engine.
 *
 * _advance (Python) is the statement of the graph transition; rn_advance
 * repeats it line for line on the same arrays: the same branch order, the
 * same double comparisons and the same truncations, so both produce the
 * same graph from the same uniforms, bit for bit. Change the two together.
 * rn_format_int_rows writes the bytes that the %s row template of
 * _write_chunks writes for int64 cells, str() of each, and
 * rn_parse_int_rows reads those bytes back as read_table's loadtxt does.
 *
 * rn_mbi_batch repeats simulate_mbi_batch, and rn_mbi_chunk repeats
 * _sample_chunk followed by _tally_chunk, in the same way. They draw from
 * the caller's numpy Generator through its bitgen_t, with the functions
 * numpy itself calls (random_standard_exponential_fill from
 * libnpyrandom.a, and next_double, which Generator.random calls), in the
 * order of the numpy code, so they leave the same counts and the same
 * generator state. The caller holds the bit generator's lock.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off -I<numpy include> _kernel.c
 * libnpyrandom.a -Wl,--exclude-libs,ALL -lm, or with -DRN_NO_MBI and
 * neither numpy file. Contracting u1*(E + delta*V) into a fused
 * multiply-add would change the draws. Every exported symbol carries the
 * rn_ prefix (--exclude-libs hides numpy's), so none can clash with a
 * symbol of another loaded library.
 */

#include <stdint.h>

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


/* Format rows of w int64 cells each, row-major in cells, as str() of each
 * cell joined by ',' with '\n' after every row: decimal digits, a leading
 * '-' for a negative value, no padding. buf must hold rows * w * 21 bytes
 * (20 for INT64_MIN, 1 for the separator). Returns the bytes written. */
int64_t rn_format_int_rows(const int64_t *cells, int64_t rows, int32_t w, char *buf)
{
    char *p = buf;
    char digits[20];
    for (int64_t i = 0; i < rows; i++) {
        const int64_t *row = cells + i * (int64_t)w;
        for (int32_t j = 0; j < w; j++) {
            int64_t x = row[j];
            /* magnitude in unsigned arithmetic, so INT64_MIN does not overflow */
            uint64_t mag = x < 0 ? 0 - (uint64_t)x : (uint64_t)x;
            int n = 0;
            do {
                digits[n++] = (char)('0' + mag % 10);
                mag /= 10;
            } while (mag);
            if (x < 0)
                *p++ = '-';
            while (n)
                *p++ = digits[--n];
            *p++ = j + 1 < w ? ',' : '\n';
        }
    }
    return p - buf;
}


/* Parse what rn_format_int_rows writes: rows of w cells, each an optional
 * '-' and 1 to 18 decimal digits, with ',' between cells and '\n' after
 * every row. Cell j of row i goes to cols[j * cap + i], so each column is
 * contiguous. Returns the number of rows, or -1 at the first byte that
 * does not fit ('\r', '+', a blank, a 19th digit, a missing final
 * newline, a wrong cell count, more than cap rows, ...); io.read_table
 * then reads the file with loadtxt, which decides such input. 18 digits
 * cannot overflow int64. The final '\n' stops every digit run, so no
 * byte past len is read. */
int64_t rn_parse_int_rows(const char *buf, int64_t len, int32_t w, int64_t cap,
                          int64_t *cols)
{
    const unsigned char *p = (const unsigned char *)buf, *end = p + len;
    int64_t rows = 0;
    if (len == 0 || end[-1] != '\n')
        return -1;
    for (; p < end; rows++) {
        if (rows == cap)
            return -1;
        int64_t *cell = cols + rows;
        for (int32_t j = 0; j < w; j++, cell += cap) {
            int neg = *p == '-';
            p += neg;
            const unsigned char *digits = p;
            uint64_t x = 0;     /* unsigned, so a long run wraps rather than overflows */
            for (unsigned d; (d = *p - (unsigned)'0') < 10; p++)
                x = x * 10 + d;
            if (p == digits || p - digits > 18 || *p++ != (j + 1 < w ? ',' : '\n'))
                return -1;
            *cell = neg ? -(int64_t)x : (int64_t)x;
        }
    }
    return rows;
}


#ifndef RN_NO_MBI
#include "numpy/random/bitgen.h"

/* Generator.standard_exponential's fill, linked from numpy's libnpyrandom.a
 * (declared in numpy/random/distributions.h, which needs Python.h) */
void random_standard_exponential_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

/* One MBI model, and where the rows that stop go: the per-row outputs of
 * simulate_mbi_batch (counts == NULL), or the count vector of _tally_chunk,
 * laid out as its K*(kmax+1)*(lmax+1) grid cells, then the overflow of
 * each group, then the failed count. */
typedef struct {
    double alpha, gamma, delta, event_budget;
    const double *rho_row, *rho_col;
    const int64_t *label;
    int64_t *n1, *n2, *events;
    uint8_t *failed;
    int64_t *counts, kmax, lmax, K;
} rn_mbi_t;

/* Record row i at its state after `it` events; `stop` says whether it
 * stops now. A row that keeps running adds 0 to counts, and its per-row
 * outputs are written again when it stops, so only the stop counts. Writing
 * every row avoids a branch that the rows take at random. */
static inline void rn_mbi_record(const rn_mbi_t *m, int64_t i, double a1, double a2,
                                 int64_t it, int failed, int stop)
{
    int64_t n1 = (int64_t)a1, n2 = (int64_t)a2;
    if (m->counts == NULL) {
        m->n1[i] = n1;
        m->n2[i] = n2;
        m->events[i] = it;
        m->failed[i] = (uint8_t)failed;
    } else {
        int64_t cells = m->K * (m->kmax + 1) * (m->lmax + 1);
        int64_t g = m->label[i];
        int64_t cell = (n1 <= m->kmax) & (n2 <= m->lmax)
            ? (g * (m->kmax + 1) + n1) * (m->lmax + 1) + n2 : cells + g;
        m->counts[failed ? cells + m->K : cell] += stop;
    }
}

/* The while loop of simulate_mbi_batch. Running row j is row idx[j] of the
 * batch, at (a1[j], a2[j]) with left[j] still to wait; e is scratch for n
 * doubles. Every running row makes one event per iteration. */
static void rn_mbi_run(bitgen_t *bg, const rn_mbi_t *m, int64_t n,
                       int64_t *idx, double *a1, double *a2, double *left, double *e)
{
    const double *coin[2] = {m->rho_col, m->rho_row};   /* indexed by is1 */
    for (int64_t it = 0; n > 0; it++) {
        random_standard_exponential_fill(bg, n, e);
        int over = (double)it >= m->event_budget;
        int64_t kept = 0;
        for (int64_t j = 0; j < n; j++) {
            double w1 = m->alpha * (a1[j] + m->delta);
            double rate = w1 + m->gamma * (a2[j] + m->delta);
            /* a rate-0 row (delta = 0 at state (0, 0)) is absorbing: its wait is inf */
            double l = left[j] - e[j] / rate;
            int go = l >= 0.0;
            int64_t i = idx[j];
            double x1 = a1[j], x2 = a2[j];
            /* stable compaction: row j moves down to kept, which advances
             * only if the row keeps running */
            idx[kept] = i;
            a1[kept] = x1;
            a2[kept] = x2;
            left[kept] = l;
            rn_mbi_record(m, i, x1, x2, it, go & over, (!go) | over);
            kept += go & !over;
        }
        n = kept;
        /* is1 = random(n) * rate < w1 takes n uniforms, then the coins n more */
        for (int64_t j = 0; j < n; j++)
            e[j] = bg->next_double(bg->state);
        for (int64_t j = 0; j < n; j++) {
            double w1 = m->alpha * (a1[j] + m->delta);
            double rate = w1 + m->gamma * (a2[j] + m->delta);
            int is1 = e[j] * rate < w1;
            double c = bg->next_double(bg->state);
            int64_t g = m->label[idx[j]];
            int rec = c < coin[is1][g];     /* c < rho_row[g] if is1 else rho_col[g] */
            a1[j] += (double)(is1 | rec);
            a2[j] += (double)((!is1) | rec);
        }
    }
}

/* simulate_mbi_batch on R rows. n1 and n2 hold the initial states on entry
 * and the final counts on return; events and failed are written for every
 * row. work holds 5R doubles. */
void rn_mbi_batch(bitgen_t *bg, int64_t R, const int64_t *label, const double *t_ends,
                  const double *rho_row, const double *rho_col,
                  double alpha, double gamma, double delta, double event_budget,
                  int64_t *n1, int64_t *n2, int64_t *events, uint8_t *failed, double *work)
{
    rn_mbi_t m = {alpha, gamma, delta, event_budget, rho_row, rho_col, label,
                  n1, n2, events, failed, NULL, 0, 0, 0};
    int64_t *idx = (int64_t *)work;
    double *a1 = work + R, *a2 = a1 + R, *left = a2 + R, *e = left + R;
    for (int64_t i = 0; i < R; i++) {
        idx[i] = i;
        a1[i] = (double)n1[i];
        a2[i] = (double)n2[i];
        left[i] = t_ends[i];
    }
    rn_mbi_run(bg, &m, R, idx, a1, a2, left, e);
}

/* _sample_chunk and _tally_chunk on n replicates: the labels as
 * params.draw_groups draws them, the initial states as
 * LimitPairSampler.draw_inits does (init_probs is its (K, 3) table), T* as
 * standard_exponential / c_star, then the MBI loop, each row that stops
 * added to counts. work holds 6n doubles. */
void rn_mbi_chunk(bitgen_t *bg, int64_t n, const double *cum_pi, int32_t K,
                  const double *init_probs, double c_star,
                  const double *rho_row, const double *rho_col,
                  double alpha, double gamma, double delta, double event_budget,
                  int64_t kmax, int64_t lmax, int64_t *counts, double *work)
{
    int64_t *label = (int64_t *)work, *idx = label + n;
    double *a1 = work + 2 * n, *a2 = a1 + n, *left = a2 + n, *e = left + n;
    rn_mbi_t m = {alpha, gamma, delta, event_budget, rho_row, rho_col, label,
                  NULL, NULL, NULL, NULL, counts, kmax, lmax, K};
    for (int64_t i = 0; i < n; i++)
        label[i] = rn_draw_group(cum_pi, K, bg->next_double(bg->state));
    for (int64_t i = 0; i < n; i++) {
        double u = bg->next_double(bg->state);
        double p01 = init_probs[3 * label[i]], p10 = init_probs[3 * label[i] + 1];
        idx[i] = i;
        a1[i] = u >= p01;
        a2[i] = (u < p01) | (u >= p01 + p10);
    }
    random_standard_exponential_fill(bg, n, left);
    for (int64_t i = 0; i < n; i++)
        left[i] = left[i] / c_star;
    rn_mbi_run(bg, &m, n, idx, a1, a2, left, e);
}
#endif
