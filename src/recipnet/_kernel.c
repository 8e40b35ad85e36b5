/* Compiled mirrors of recipnet.simulate._advance, of the integer cells
 * of recipnet.io._write_chunks and io.read_table, of recipnet.branching's
 * MBI engine and limit-law flow, of recipnet.embedding.embedding_chains,
 * and of numpy's PCG64, which draws for them without numpy.random.
 *
 * _advance (Python) is the statement of the graph transition; rn_advance
 * repeats it line for line on the same arrays: one body for both
 * scenarios, whose sides (pool, degrees, group counter of the old
 * endpoint and of the new node) the first uniform selects, the same double
 * comparisons and the same truncations, so both produce the same graph
 * from the same uniforms, bit for bit. Change the two together.
 * rn_format_int_rows writes the bytes that the %s row template of
 * _write_chunks writes for integer cells, str() of each, reading every
 * column where it lies (any item size, sign and stride), and
 * rn_parse_int_rows reads those bytes back as read_table's loadtxt does,
 * into one array per column that the caller asks for.
 *
 * rn_mbi_batch repeats the fixed-horizon loop of simulate_mbi_batch around
 * rn_event, the mirror of branching._event, rn_mbi_flow the binomial flow
 * of branching._flow with _tally_chunk's tally (it writes no rows), and
 * rn_chains embedding_chains. They draw from the caller's bitgen_t, that
 * of rn_pcg64 (numpy's PCG64, below) or of a numpy Generator, with numpy's
 * own functions (libnpyrandom.a) in the numpy code's order, so they leave
 * the same counts and the same state as the numpy code on that stream:
 * per iteration, rn_mbi_batch takes an exponential and a uniform fill
 * (random_standard_exponential_fill and _uniform_fill, as
 * Generator.standard_exponential and .random do); rn_mbi_flow takes
 * random_multinomial for the groups and then for each group's initial
 * states, and per layer random_binomial for every state's kills, then
 * type-I events, then type-I coins, then type-II coins (as
 * Generator.multinomial and .binomial do); next_double (one uniform of the
 * stream) draws rn_chains' labels and coins between its exponential fills
 * per replicate and jump. The caller holds a Generator's lock.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off -I<numpy include> _kernel.c
 * libnpyrandom.a -Wl,--exclude-libs,ALL -lm. Contracting u1*(E + delta*V),
 * or w1 + w2*rc in rn_event, into a fused multiply-add would change the
 * draws. Every exported symbol carries the rn_ prefix (--exclude-libs
 * hides numpy's), so none can clash with a symbol of another loaded
 * library.
 */

#include <stdint.h>
#include <stdlib.h>
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

        /* scenario 1: new node w sends (w, v), v by in-degree preference;
         * scenario 2: w receives (v, w), v by out-degree preference */
        int s1 = row[0] < alpha;
        int32_t *v_pool = s1 ? in_pool : out_pool, *w_pool = s1 ? out_pool : in_pool;
        int32_t *v_deg = s1 ? in_deg : out_deg, *w_deg = s1 ? out_deg : in_deg;
        int64_t *v_edges = s1 ? g_in : g_out, *w_edges = s1 ? g_out : g_in;
        int64_t w = V + 1;
        int64_t v;
        if (row[1] * ((double)E + delta * (double)V) < (double)E)
            v = v_pool[(int64_t)(row[2] * (double)E)];
        else
            v = (int64_t)(row[2] * (double)V) + 1;
        int32_t mg = rn_group(node_group, wide, v);
        v_deg[v] += 1;
        v_pool[E] = (int32_t)v;
        w_pool[E] = (int32_t)w;
        v_edges[mg] += 1;
        w_edges[r] += 1;
        E += 1;
        if (row[4] < rho[s1 ? (int64_t)mg * K + r : (int64_t)r * K + mg]) {
            w_deg[v] += 1;
            v_pool[E] = (int32_t)w;
            w_pool[E] = (int32_t)v;
            v_edges[r] += 1;
            w_edges[mg] += 1;
            E += 1;
            rc += 1;
            v_deg[w] = 1;
        } else {
            v_deg[w] = 0;
        }
        w_deg[w] = 1;
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


/* Generator.standard_exponential's and Generator.random's fills, and the
 * binomial and multinomial draws of Generator.binomial and .multinomial,
 * linked from numpy's libnpyrandom.a (declared in
 * numpy/random/distributions.h, which needs Python.h; the cache is its
 * binomial_t) */
void random_standard_exponential_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
void random_standard_uniform_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
int64_t random_binomial(bitgen_t *bitgen_state, double p, int64_t n, void *binomial);
void random_multinomial(bitgen_t *bitgen_state, int64_t n, int64_t *mnix, double *pix,
                        intptr_t d, void *binomial);

/* numpy's PCG64 (numpy/random/src/pcg64/pcg64.h with 128-bit arithmetic)
 * behind its bitgen_t, which points at the struct: XSL-RR output of the
 * stepped 128-bit LCG state, the upper half of a 64-bit draw buffered for
 * the next 32-bit one. rn_pcg64_seed is pcg64_set_seed: initstate
 * (w0 << 64) + w1 and initseq (w2 << 64) + w3 are the four words of
 * SeedSequence.generate_state(4, uint64), which _kernel.seed_words
 * mirrors, so a PCG64 seeded here draws the stream of
 * default_rng(SeedSequence(entropy)). The caller keeps the struct at a
 * 16-byte boundary, in the room that _kernel.PCG64 sets aside. */
typedef struct {
    bitgen_t bg;
    unsigned __int128 state, inc;
    int has_uint32;
    uint32_t uinteger;
} rn_pcg64;

_Static_assert(sizeof(rn_pcg64) <= 96, "_kernel.PCG64 sets aside 96 bytes");

static inline void rn_pcg64_step(rn_pcg64 *p)
{
    p->state = p->state * (((unsigned __int128)2549297995355413924ULL << 64)
                           + 4865540595714422341ULL) + p->inc;
}

static uint64_t rn_pcg64_next64(void *st)
{
    rn_pcg64 *p = st;
    rn_pcg64_step(p);
    uint64_t x = (uint64_t)(p->state >> 64) ^ (uint64_t)p->state;
    unsigned rot = (unsigned)(p->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

static uint32_t rn_pcg64_next32(void *st)
{
    rn_pcg64 *p = st;
    if (p->has_uint32) {
        p->has_uint32 = 0;
        return p->uinteger;
    }
    uint64_t x = rn_pcg64_next64(p);
    p->has_uint32 = 1;
    p->uinteger = (uint32_t)(x >> 32);
    return (uint32_t)x;
}

static double rn_pcg64_next_double(void *st)
{
    return (double)(rn_pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

void rn_pcg64_seed(rn_pcg64 *p, uint64_t w0, uint64_t w1, uint64_t w2, uint64_t w3)
{
    p->bg = (bitgen_t){p, rn_pcg64_next64, rn_pcg64_next32, rn_pcg64_next_double,
                       rn_pcg64_next64};
    p->state = 0;
    p->inc = ((unsigned __int128)w2 << 64 | w3) << 1 | 1;
    rn_pcg64_step(p);
    p->state += (unsigned __int128)w0 << 64 | w1;
    rn_pcg64_step(p);
    p->has_uint32 = 0;
    p->uinteger = 0;
}

/* Generator.random's fill, for any bitgen_t */
void rn_uniform_fill(bitgen_t *bg, int64_t n, double *out)
{
    random_standard_uniform_fill(bg, n, out);
}

/* branching._event: move (*a1, *a2) by the event x = u * (w1 + w2) picks */
static inline void rn_event(double *a1, double *a2, double x, double w1, double w2,
                            double rr, double rc)
{
    int is1 = x < w1;
    *a1 += (double)(is1 | (x < w1 + w2 * rc));
    *a2 += (double)((!is1) | (x < w1 * rr));
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
            rn_event(a1 + kept, a2 + kept, u[j] * rate, w1, w2, rho_row[g], rho_col[g]);
            kept += go & !over;
        }
        n = kept;
    }
}

/* A state of branching._flow's layer: group, (n1, n2) and its chain count */
typedef struct { int64_t g, k, l, n; } rn_state;

/* (a->g, a->k, a->l) < (b->g, b->k, b->l) */
static inline int rn_before(const rn_state *a, const rn_state *b)
{
    return a->g != b->g ? a->g < b->g : a->k != b->k ? a->k < b->k : a->l < b->l;
}

/* cnt chains end at s: added to counts, _tally_chunk's K*(kmax+1)*(lmax+1)
 * grid cells, then each group's overflow, then the failed count */
static inline void rn_record(const rn_state *s, int64_t cnt, int fail, int32_t K,
                             int64_t kmax, int64_t lmax, int64_t *counts)
{
    int64_t cells = K * (kmax + 1) * (lmax + 1);
    counts[fail ? cells + K : s->k <= kmax && s->l <= lmax
           ? (s->g * (kmax + 1) + s->k) * (lmax + 1) + s->l : cells + s->g] += cnt;
}

/* Bytes per state of room: the layer, its successors and three draws */
#define RN_ROOM (2 * sizeof(rn_state) + 3 * sizeof(int64_t))

/* branching._flow on a chunk of n chains, its records tallied by rn_record.
 * The room grows with the states of a layer, which are far fewer than
 * the chains. Returns 0, or -1 when an allocation fails. */
int64_t rn_mbi_flow(bitgen_t *bg, int64_t n, const double *pi, int32_t K,
                    const double *init_probs, double c_star,
                    const double *rho_row, const double *rho_col,
                    double alpha, double gamma, double delta, double event_budget,
                    int64_t kmax, int64_t lmax, int64_t *counts)
{
    /* random_binomial's cache, numpy's binomial_t (17 fields of at most 8
     * bytes, 136 in all). It keeps what it derives from (n, p) and derives
     * it again whenever they change, so the draws do not depend on it. */
    double cache[32] = {0};
    int64_t cap = 3 * (int64_t)K, S = 0;
    int64_t *start = calloc(4 * (size_t)K, sizeof *start);
    rn_state *cur = malloc(cap * RN_ROOM);
    if (start == NULL || cur == NULL) {
        free(start);
        free(cur);
        return -1;
    }
    random_multinomial(bg, n, start + 3 * K, (double *)pi, K, cache);
    for (int32_t g = 0; g < K; g++)
        random_multinomial(bg, start[3 * K + g], start + 3 * g, (double *)init_probs + 3 * g, 3,
                           cache);
    /* (0, 1), (1, 0) and (1, 1) per group, the order of init_probs' columns */
    for (int64_t i = 0; i < 3 * K; i++)
        if (start[i] > 0)
            cur[S++] = (rn_state){i / 3, i % 3 > 0, i % 3 != 1, start[i]};
    free(start);
    for (int64_t e = 0; S > 0; e++) {
        if (3 * S > cap) {          /* room for every successor */
            rn_state *grown = realloc(cur, 3 * S * RN_ROOM);
            if (grown == NULL) {
                free(cur);
                return -1;
            }
            cur = grown;
            cap = 3 * S;
        }
        /* d[0], d[1], d[2] of state s: its survivors, type-I events and
         * type-I coins, then its successors (k+1, l), (k, l+1), (k+1, l+1) */
        rn_state *nxt = cur + cap;
        int64_t *d = (int64_t *)(nxt + cap);
        for (int64_t s = 0; s < S; s++) {
            double w1 = alpha * ((double)cur[s].k + delta), w2 = gamma * ((double)cur[s].l + delta);
            int64_t kill = random_binomial(bg, c_star / (c_star + w1 + w2), cur[s].n, cache);
            rn_record(cur + s, kill, 0, K, kmax, lmax, counts);
            d[3 * s] = cur[s].n - kill;
        }
        if ((double)e >= event_budget) {
            for (int64_t s = 0; s < S; s++)
                rn_record(cur + s, d[3 * s], 1, K, kmax, lmax, counts);
            break;
        }
        for (int64_t s = 0; s < S; s++) {
            double w1 = alpha * ((double)cur[s].k + delta), w2 = gamma * ((double)cur[s].l + delta);
            d[3 * s + 1] = random_binomial(bg, w1 / (w1 + w2), d[3 * s], cache);
        }
        for (int64_t s = 0; s < S; s++)
            d[3 * s + 2] = random_binomial(bg, rho_row[cur[s].g], d[3 * s + 1], cache);
        for (int64_t s = 0; s < S; s++) {
            int64_t *x = d + 3 * s, r2 = random_binomial(bg, rho_col[cur[s].g], x[0] - x[1], cache);
            int64_t live = x[0], t1 = x[1], r1 = x[2];
            x[0] = t1 - r1;
            x[1] = live - t1 - r2;
            x[2] = r1 + r2;
        }
        /* the three successor sequences are each sorted as the layer is:
         * merge them, summing equal states and dropping zeros */
        int64_t at[3] = {0, 0, 0}, m = 0;
        for (;;) {
            rn_state head[3], best = {INT64_MAX, 0, 0, 0};
            for (int q = 0; q < 3; q++)
                if (at[q] < S) {
                    const rn_state *s = cur + at[q];
                    head[q] = (rn_state){s->g, s->k + (q != 1), s->l + (q != 0), d[3 * at[q] + q]};
                    best = rn_before(head + q, &best) ? head[q] : best;
                }
            if (best.g == INT64_MAX)
                break;
            best.n = 0;
            for (int q = 0; q < 3; q++)
                if (at[q] < S && !rn_before(&best, head + q)) {
                    best.n += head[q].n;
                    at[q]++;
                }
            if (best.n > 0)
                nxt[m++] = best;
        }
        memcpy(cur, nxt, m * sizeof *cur);
        S = m;
    }
    free(cur);
    return 0;
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
            n1[i * w + k] += (!type2) | rec;
            n2[i * w + k] += type2 | rec;
            n1[i * w + j] = type2 | rec;
            n2[i * w + j] = (!type2) | rec;
        }
    }
}
