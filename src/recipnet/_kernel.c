/* Compiled mirror of recipnet.simulate._advance.
 *
 * _advance (Python) is the statement of the graph transition; rn_advance
 * repeats it line for line on the same arrays: the same branch order, the
 * same double comparisons and the same truncations, so both produce the
 * same graph from the same uniforms, bit for bit. Change the two together.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off. Contracting
 * u1*(E + delta*V) into a fused multiply-add would change the draws.
 * Every exported symbol carries the rn_ prefix, so none can clash with a
 * symbol of another loaded library.
 */

#include <stdint.h>

#define RN_PREFETCH_ROWS 8

/* node_group holds int8 labels when wide == 0, int32 labels otherwise */
static inline int32_t rn_group(const void *node_group, int32_t wide, int64_t v)
{
    return wide ? ((const int32_t *)node_group)[v] : ((const int8_t *)node_group)[v];
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
        /* params.draw_groups: searchsorted(cum_pi, u3, side="right"), clamped */
        int32_t r = 0;
        while (r < K && cum_pi[r] <= row[3])
            r++;
        if (r > K - 1)
            r = K - 1;

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
