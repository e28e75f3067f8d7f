/* Fused N-domain lean pack replay, epoch-resumable.
 *
 * Replays one co-run cell: every domain's scheduler state (trace
 * position, liveness, virtual time, way mask, level counters) lives in a
 * flat int64 buffer owned by Python (`dom`, DOM_STRIDE slots per
 * domain), and one call replays an *epoch* — it stops at an absolute
 * issued-access target (`cfg[CFG_STOP]`) or when every domain has
 * retired — then writes everything back.  The next call resumes exactly
 * where this one stopped, possibly with different way masks (Python
 * rewrites dom[D_MASK] between calls); nothing is flushed, resident
 * lines and all recency state carry over, which is the Section 2.1
 * mechanism contract.
 *
 * This file is not built on its own: batchwalk.c and epochbatch.c
 * #include it and run repro_multi_walk once per cell of their state
 * banks (kernel.NativeBatchReplay owns the layout).
 *
 * The scheduler is a linear scan for the minimum (vtime, slot) over live
 * domains: ties break toward the lowest slot, which is exactly the
 * lexicographic pop order of the (vtime, slot) heap in
 * TraceEngine.run — entries are unique, so scan and heap retire
 * accesses in the same order.  A non-repeating domain that exhausts its
 * trace goes dead without issuing, as TraceEngine.run retires it.
 *
 * The per-access cache walk (`access_one`) ports the Python lean pack
 * walk (kernel._build_lean_pack_walk); per-core L1 permutation-FSM
 * states and L2 PLRU words live in all-core flattened arrays so any
 * subset of cores can participate.
 *
 * Conventions shared with kernel.KernelCacheLevel:
 *   - tags[set * ways + way] holds the line number, -1 when invalid;
 *   - valid/dirty are per-set bitmasks (lean replay: dirty stays 0);
 *   - L1 recency is the 40320-state 8-way LRU permutation FSM
 *     (l1_touch / l1_fill tables from kernel._lru8_tables);
 *   - L2 and LLC recency are PLRU bit-trees; the 8-way L2 uses full
 *     touch/fill tables, the way-masked LLC walks its tree directly
 *     with the per-node left/right subtree masks.
 */

#include <stdint.h>

typedef int64_t i64;
typedef int32_t i32;

/* cfg[] scalar layout (must match kernel._CFG_* and NativeBatchReplay) */
enum {
    CFG_N, CFG_LEAVES, CFG_W, CFG_L1_MOD, CFG_L2_MOD, CFG_NUM_CORES,
    CFG_STOP,
    CFG_SLOTS,
};

/* dom[] per-domain layout, persistent across calls */
enum {
    D_CORE, D_CBIT, D_MASK,
    D_LT0, D_LT1, D_LT2, D_LT3,
    D_N, D_REP, D_POS, D_LIVE, D_VTIME,
    D_H1, D_H2, D_H3, D_M3, D_E1, D_E2, D_E3,
    DOM_STRIDE = 20,
};

/* sched[] layout (persistent): total accesses issued so far, and
 * whether the cell's state bank has been filled (epochbatch.c) */
enum { SCHED_ISSUED, SCHED_FILLED, SCHED_SLOTS };

typedef struct {
    /* LLC state */
    i64 *tags, *sharers, *valid, *plru;
    const i64 *pset, *pclr, *left, *right;
    i64 leaves, W;
    /* recency tables */
    const i32 *l1_touch, *l1_fill, *l2_touch, *l2_fill;
    /* inner-cache state, all cores, flattened [core][set][way] */
    i64 l1_mod, l2_mod, num_cores;
    i64 *all_l1_tags, *all_l1_valid, *all_l2_tags, *all_l2_valid;
    i64 *l1_bi, *l2_bi;
} Shared;

typedef struct {
    i64 lt0, lt1, lt2, lt3;
    i64 cb, mb, core;
    i64 *l1_tags, *l1_valid, *l1_state;
    i64 *l2_tags, *l2_valid, *l2_plru;
    i64 h1, h2, h3, m3, e1, e2, e3;
} Core;

/* KernelCacheLevel.invalidate: drop the line if present (clears the
 * valid bit and tombstones the tag; recency state is left alone).
 * Returns 1 when the line was resident so the caller can count the
 * back-invalidation, mirroring the membership-checked Python calls. */
static inline int
inval8(i64 *tags, i64 *valid, i64 tag)
{
    i64 v = *valid;
    for (int w = 0; w < 8; w++) {
        if (((v >> w) & 1) && tags[w] == tag) {
            *valid = v & ~((i64)1 << w);
            tags[w] = -1;
            return 1;
        }
    }
    return 0;
}

static inline void
inval_core(const Shared *S, i64 c, i64 tag)
{
    i64 s1 = tag & S->l1_mod;
    i64 l1_sets = S->l1_mod + 1;
    i64 *t1 = S->all_l1_tags + ((c * l1_sets + s1) << 3);
    if (inval8(t1, S->all_l1_valid + c * l1_sets + s1, tag))
        S->l1_bi[c]++;
    i64 s2 = tag & S->l2_mod;
    i64 l2_sets = S->l2_mod + 1;
    i64 *t2 = S->all_l2_tags + ((c * l2_sets + s2) << 3);
    if (inval8(t2, S->all_l2_valid + c * l2_sets + s2, tag))
        S->l2_bi[c]++;
}

/* One access for one core; returns the latency (incl. think cycles). */
static inline i64
access_one(const Shared *S, Core *C, i64 line, i64 s3)
{
    /* L1 probe */
    i64 s1 = line & S->l1_mod;
    i64 *t1 = C->l1_tags + (s1 << 3);
    i64 v1 = C->l1_valid[s1];
    for (int w = 0; w < 8; w++) {
        if (((v1 >> w) & 1) && t1[w] == line) {
            C->h1++;
            C->l1_state[s1] = S->l1_touch[(C->l1_state[s1] << 3) + w];
            return C->lt0;
        }
    }
    i64 lat;
    /* L2 probe */
    i64 s2 = line & S->l2_mod;
    i64 *t2 = C->l2_tags + (s2 << 3);
    i64 v2 = C->l2_valid[s2];
    int hit2 = 0;
    for (int w = 0; w < 8; w++) {
        if (((v2 >> w) & 1) && t2[w] == line) {
            C->h2++;
            C->l2_plru[s2] = S->l2_touch[(C->l2_plru[s2] << 3) + w];
            lat = C->lt1;
            hit2 = 1;
            break;
        }
    }
    if (!hit2) {
        /* LLC probe */
        i64 W = S->W;
        i64 base3 = s3 * W;
        i64 *t3 = S->tags + base3;
        i64 v3 = S->valid[s3];
        int hit3 = 0;
        for (i64 w = 0; w < W; w++) {
            if (((v3 >> w) & 1) && t3[w] == line) {
                C->h3++;
                S->plru[s3] = (S->plru[s3] | S->pset[w]) & S->pclr[w];
                S->sharers[base3 + w] |= C->cb;
                lat = C->lt2;
                hit3 = 1;
                break;
            }
        }
        if (!hit3) {
            C->m3++;
            i64 inv = ~v3 & C->mb;
            if (inv) {
                i64 victim = __builtin_ctzll((unsigned long long)inv);
                S->valid[s3] = v3 | ((i64)1 << victim);
                t3[victim] = line;
                S->sharers[base3 + victim] = C->cb;
                S->plru[s3] =
                    (S->plru[s3] | S->pset[victim]) & S->pclr[victim];
            } else {
                i64 bits = S->plru[s3];
                i64 node = 1;
                while (node < S->leaves) {
                    i64 go_right = (bits >> node) & 1;
                    if (go_right) {
                        if (!(C->mb & S->right[node]))
                            go_right = 0;
                    } else if (!(C->mb & S->left[node])) {
                        go_right = 1;
                    }
                    node = go_right ? 2 * node + 1 : 2 * node;
                }
                i64 victim = node - S->leaves;
                i64 old_tag = t3[victim];
                i64 old_sh = S->sharers[base3 + victim];
                C->e3++;
                /* Inclusion: back-invalidate inner copies.  Fast path
                 * for the self-owned victim, else visit sharer bits,
                 * else (stale zero sharers) sweep every core. */
                if (old_sh == C->cb) {
                    inval_core(S, C->core, old_tag);
                } else if (old_sh) {
                    i64 sh = old_sh;
                    while (sh) {
                        inval_core(
                            S,
                            __builtin_ctzll((unsigned long long)sh),
                            old_tag);
                        sh &= sh - 1;
                    }
                } else {
                    for (i64 c = 0; c < S->num_cores; c++)
                        inval_core(S, c, old_tag);
                }
                t3[victim] = line;
                S->sharers[base3 + victim] = C->cb;
                S->plru[s3] = (bits | S->pset[victim]) & S->pclr[victim];
            }
            lat = C->lt3;
        }
        /* L2 fill (re-read: a self back-invalidation above may have
         * opened a hole in this very set) */
        v2 = C->l2_valid[s2];
        if (v2 == 255) {
            i32 packed = S->l2_fill[C->l2_plru[s2]];
            i64 victim = packed & 7;
            C->l2_plru[s2] = packed >> 3;
            C->e2++;
            t2[victim] = line;
        } else {
            i64 victim = __builtin_ctzll((unsigned long long)(~v2 & 255));
            C->l2_valid[s2] = v2 | ((i64)1 << victim);
            C->l2_plru[s2] = S->l2_touch[(C->l2_plru[s2] << 3) + victim];
            t2[victim] = line;
        }
    }
    /* L1 fill (same re-read rule as L2) */
    i64 st = C->l1_state[s1];
    v1 = C->l1_valid[s1];
    if (v1 == 255) {
        i32 packed = S->l1_fill[st];
        i64 victim = packed & 7;
        C->l1_state[s1] = packed >> 3;
        C->e1++;
        t1[victim] = line;
    } else {
        i64 victim = __builtin_ctzll((unsigned long long)(~v1 & 255));
        C->l1_valid[s1] = v1 | ((i64)1 << victim);
        C->l1_state[s1] = S->l1_touch[(st << 3) + victim];
        t1[victim] = line;
    }
    return lat;
}

i64
repro_multi_walk(
    const i64 *cfg,
    i64 *dom,
    const i64 *const *lines, const i64 *const *sets,
    i64 *llc_tags, i64 *llc_sharers, i64 *llc_valid, i64 *llc_plru,
    const i64 *pset, const i64 *pclr, const i64 *pleft, const i64 *pright,
    const i32 *l1_touch, const i32 *l1_fill,
    const i32 *l2_touch, const i32 *l2_fill,
    i64 *all_l1_tags, i64 *all_l1_valid, i64 *all_l1_state,
    i64 *all_l2_tags, i64 *all_l2_valid, i64 *all_l2_plru,
    i64 *bi,
    i64 *sched)
{
    i64 N = cfg[CFG_N];
    i64 num_cores = cfg[CFG_NUM_CORES];
    Shared S = {
        llc_tags, llc_sharers, llc_valid, llc_plru,
        pset, pclr, pleft, pright,
        cfg[CFG_LEAVES], cfg[CFG_W],
        l1_touch, l1_fill, l2_touch, l2_fill,
        cfg[CFG_L1_MOD], cfg[CFG_L2_MOD], num_cores,
        all_l1_tags, all_l1_valid, all_l2_tags, all_l2_valid,
        bi, bi + num_cores,
    };
    i64 l1_sets = S.l1_mod + 1;
    i64 l2_sets = S.l2_mod + 1;

    /* Bounded by the Python builder's N <= 16 guard. */
    Core C[16];
    i64 n[16], rep[16], pos[16], live[16], vt[16];
    const i64 *lcol[16], *scol[16];
    if (N > 16)
        return -1;
    for (i64 d = 0; d < N; d++) {
        i64 *p = dom + d * DOM_STRIDE;
        i64 core = p[D_CORE];
        Core c = {
            p[D_LT0], p[D_LT1], p[D_LT2], p[D_LT3],
            p[D_CBIT], p[D_MASK], core,
            all_l1_tags + core * l1_sets * 8,
            all_l1_valid + core * l1_sets,
            all_l1_state + core * l1_sets,
            all_l2_tags + core * l2_sets * 8,
            all_l2_valid + core * l2_sets,
            all_l2_plru + core * l2_sets,
            p[D_H1], p[D_H2], p[D_H3], p[D_M3], p[D_E1], p[D_E2], p[D_E3],
        };
        C[d] = c;
        n[d] = p[D_N];
        rep[d] = p[D_REP];
        pos[d] = p[D_POS];
        live[d] = p[D_LIVE];
        vt[d] = p[D_VTIME];
        lcol[d] = lines[d];
        scol[d] = sets[d];
    }

    i64 issued = sched[SCHED_ISSUED];
    i64 stop = cfg[CFG_STOP];
    while (issued < stop) {
        /* Linear scan == heap pop: min vtime, lowest slot on ties. */
        i64 best = -1, bt = 0;
        for (i64 d = 0; d < N; d++) {
            if (live[d] && (best < 0 || vt[d] < bt)) {
                best = d;
                bt = vt[d];
            }
        }
        if (best < 0)
            break;
        i64 i = pos[best];
        if (i == n[best]) {
            if (!rep[best]) {
                live[best] = 0;  /* exhausted, non-repeating: retire */
                continue;
            }
            i = 0;
        }
        vt[best] = bt + access_one(&S, &C[best], lcol[best][i],
                                   scol[best][i]);
        pos[best] = i + 1;
        issued++;
    }

    for (i64 d = 0; d < N; d++) {
        i64 *p = dom + d * DOM_STRIDE;
        p[D_POS] = pos[d];
        p[D_LIVE] = live[d];
        p[D_VTIME] = vt[d];
        p[D_H1] = C[d].h1;
        p[D_H2] = C[d].h2;
        p[D_H3] = C[d].h3;
        p[D_M3] = C[d].m3;
        p[D_E1] = C[d].e1;
        p[D_E2] = C[d].e2;
        p[D_E3] = C[d].e3;
    }
    sched[SCHED_ISSUED] = issued;
    return issued;
}
