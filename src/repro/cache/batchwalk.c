/* Batched replay: one call, R independent replays, parallel inside C.
 *
 * Two entry points share one worker pool:
 *
 *   repro_batch_walk     R independent multiwalk cells (whole co-runs or
 *                        the allocations of a measured way sweep).  The
 *                        caller passes ONE template bank — the full flat
 *                        state multiwalk.c operates on (LLC tags/sharers/
 *                        valid/PLRU, all-core L1/L2 tags + recency, back-
 *                        invalidation counters; see BankLayout) — and one
 *                        working bank per worker thread.  A cell's work
 *                        item copies the template into its worker's bank
 *                        and runs `repro_multi_walk` there, so every cell
 *                        starts from an identical copy and the replay is
 *                        bit-identical to calling the epoch kernel once
 *                        per cell, in any thread order.  A roster holds
 *                        `threads` banks, not R: each cell's results live
 *                        in its own dom/sched slices, never in a bank.
 *
 *   repro_batch_profile  R UMON profiling streams (one per domain) over
 *                        shared trace columns: the bounded stack-distance
 *                        update of profile.WayProfiler, parallelized by
 *                        sharding the *set index* space.  Sets are
 *                        independent under set-associative LRU, and each
 *                        (cell, shard) work item writes its own
 *                        histogram slot, so the per-cell histogram — the
 *                        fixed-order sum over shard slots, reduced by
 *                        the Python caller — is invariant to both the
 *                        shard count and the thread schedule.
 *
 * Threading is compile-time selected: OpenMP when the loader's
 * `-fopenmp` probe succeeds, else a pthread worker loop
 * (-DREPRO_BATCH_PTHREADS), else the serial batched loop.  All three
 * paths hand each work item its worker index (0 <= worker < threads)
 * and write results only into caller-owned per-item output slots (each
 * cell's own dom/sched/histogram slice, each worker's own bank), never
 * into shared accumulators, so the reduction order is deterministic and
 * the output is thread-count-invariant by construction.
 * `repro_batch_threading` reports which path was compiled in
 * (2 = OpenMP, 1 = pthreads, 0 = serial) so `kernel_status` tells the
 * truth about the object that actually loaded, not the flags that were
 * requested.
 */

#include <string.h>

#include "multiwalk.c"

#if defined(_OPENMP)
#include <omp.h>
#elif defined(REPRO_BATCH_PTHREADS)
#include <pthread.h>
#endif

typedef void (*batch_item_fn)(void *ctx, i64 item, i64 worker);

#if defined(_OPENMP)

static void
run_items(void *ctx, batch_item_fn fn, i64 total, i64 threads)
{
    i64 it;
#pragma omp parallel for schedule(dynamic, 1) num_threads((int)threads)
    for (it = 0; it < total; it++)
        fn(ctx, it, omp_get_thread_num());
}

enum { BATCH_THREADING = 2 };

#elif defined(REPRO_BATCH_PTHREADS)

typedef struct {
    void *ctx;
    batch_item_fn fn;
    i64 total;
    i64 next;  /* atomically claimed work-item counter */
} PoolState;

typedef struct {
    PoolState *pool;
    i64 worker;  /* this thread's index, handed to every item it runs */
} PoolSlot;

static void *
pool_worker(void *arg)
{
    PoolSlot *slot = (PoolSlot *)arg;
    PoolState *p = slot->pool;
    for (;;) {
        i64 it = __atomic_fetch_add(&p->next, 1, __ATOMIC_RELAXED);
        if (it >= p->total)
            return 0;
        p->fn(p->ctx, it, slot->worker);
    }
}

static void
run_items(void *ctx, batch_item_fn fn, i64 total, i64 threads)
{
    PoolState pool = { ctx, fn, total, 0 };
    pthread_t workers[63];
    PoolSlot slots[64];
    i64 spawned = 0;
    i64 want = threads - 1;  /* the calling thread drains items too */
    if (want > 63)
        want = 63;
    for (i64 t = 0; t < want; t++) {
        slots[spawned + 1].pool = &pool;
        slots[spawned + 1].worker = spawned + 1;
        if (pthread_create(&workers[spawned], 0, pool_worker,
                           &slots[spawned + 1]) != 0)
            break;  /* fewer workers; every item still runs */
        spawned++;
    }
    slots[0].pool = &pool;
    slots[0].worker = 0;
    pool_worker(&slots[0]);
    for (i64 t = 0; t < spawned; t++)
        pthread_join(workers[t], 0);
}

enum { BATCH_THREADING = 1 };

#else

static void
run_items(void *ctx, batch_item_fn fn, i64 total, i64 threads)
{
    (void)threads;
    for (i64 it = 0; it < total; it++)
        fn(ctx, it, 0);
}

enum { BATCH_THREADING = 0 };

#endif

i64
repro_batch_threading(void)
{
    return BATCH_THREADING;
}

/* bcfg[] scalar layout (must match kernel.NativeBatchReplay) */
enum {
    B_CELLS, B_THREADS, B_NMAX, B_LLC_SETS, B_W,
    B_L1_SETS, B_L2_SETS, B_NUM_CORES, B_BANKS,
    BCFG_SLOTS,
};

/* One bank is one cell's flat walk state: these sections, back to back,
 * as word offsets from the bank base (must match kernel._bank_layout).
 * The template and every cell or worker bank share the layout, so
 * filling a bank is one memcpy. */
typedef struct {
    i64 llc_tags, llc_sharers, llc_valid, llc_plru;
    i64 l1_tags, l1_valid, l1_state;
    i64 l2_tags, l2_valid, l2_plru;
    i64 bi;
    i64 stride;  /* words per bank */
} BankLayout;

static BankLayout
bank_layout(const i64 *bcfg)
{
    i64 llc_sets = bcfg[B_LLC_SETS];
    i64 llc_tw = llc_sets * bcfg[B_W];
    i64 l1 = bcfg[B_NUM_CORES] * bcfg[B_L1_SETS];
    i64 l2 = bcfg[B_NUM_CORES] * bcfg[B_L2_SETS];
    BankLayout L;
    i64 o = 0;
    L.llc_tags = o;    o += llc_tw;
    L.llc_sharers = o; o += llc_tw;
    L.llc_valid = o;   o += llc_sets;
    L.llc_plru = o;    o += llc_sets;
    L.l1_tags = o;     o += 8 * l1;
    L.l1_valid = o;    o += l1;
    L.l1_state = o;    o += l1;
    L.l2_tags = o;     o += 8 * l2;
    L.l2_valid = o;    o += l2;
    L.l2_plru = o;     o += l2;
    L.bi = o;          o += 2 * bcfg[B_NUM_CORES];
    L.stride = o;
    return L;
}

typedef struct {
    const i64 *cfg;                /* R x CFG_SLOTS */
    i64 *dom;                      /* R x n_max x DOM_STRIDE */
    const i64 *const *lines;       /* R x n_max column pointers */
    const i64 *const *sets;
    const i64 *tpl;                /* the template bank */
    i64 *banks;                    /* bcfg[B_BANKS] banks */
    const i64 *pset, *pclr, *pleft, *pright;
    const i32 *l1_touch, *l1_fill, *l2_touch, *l2_fill;
    i64 *sched;                    /* R x SCHED_SLOTS */
    i64 nmax;
    BankLayout L;
} WalkBatch;

/* The batch view over the caller-owned arrays, shared by every entry
 * point on this layout (repro_batch_walk, epochbatch.c's
 * repro_epoch_batch). */
static WalkBatch
make_walk_batch(
    const i64 *bcfg,
    const i64 *cfg,
    i64 *dom,
    const i64 *const *lines, const i64 *const *sets,
    const i64 *tpl, i64 *banks,
    const i64 *pset, const i64 *pclr, const i64 *pleft, const i64 *pright,
    const i32 *l1_touch, const i32 *l1_fill,
    const i32 *l2_touch, const i32 *l2_fill,
    i64 *sched)
{
    WalkBatch B = {
        cfg, dom, lines, sets, tpl, banks,
        pset, pclr, pleft, pright,
        l1_touch, l1_fill, l2_touch, l2_fill,
        sched, bcfg[B_NMAX], bank_layout(bcfg),
    };
    return B;
}

static i64 *
bank_at(const WalkBatch *B, i64 k)
{
    return B->banks + k * B->L.stride;
}

/* Reset a bank to the template: the cell starts from an identical copy. */
static void
fill_bank(const WalkBatch *B, i64 *bank)
{
    memcpy(bank, B->tpl, (size_t)B->L.stride * sizeof(i64));
}

/* Replay (or resume) cell r on `bank`, which holds that cell's state. */
static void
walk_on(const WalkBatch *B, i64 r, i64 *bank)
{
    const BankLayout *L = &B->L;
    repro_multi_walk(
        B->cfg + r * CFG_SLOTS,
        B->dom + r * B->nmax * DOM_STRIDE,
        B->lines + r * B->nmax, B->sets + r * B->nmax,
        bank + L->llc_tags, bank + L->llc_sharers,
        bank + L->llc_valid, bank + L->llc_plru,
        B->pset, B->pclr, B->pleft, B->pright,
        B->l1_touch, B->l1_fill, B->l2_touch, B->l2_fill,
        bank + L->l1_tags, bank + L->l1_valid, bank + L->l1_state,
        bank + L->l2_tags, bank + L->l2_valid, bank + L->l2_plru,
        bank + L->bi,
        B->sched + r * SCHED_SLOTS);
}

/* One-shot cell: refill the worker's bank, then replay the cell in it. */
static void
walk_cell(void *arg, i64 r, i64 worker)
{
    const WalkBatch *B = (const WalkBatch *)arg;
    i64 *bank = bank_at(B, worker);
    fill_bank(B, bank);
    walk_on(B, r, bank);
}

i64
repro_batch_walk(
    const i64 *bcfg,
    const i64 *cfg,
    i64 *dom,
    const i64 *const *lines, const i64 *const *sets,
    const i64 *tpl, i64 *banks,
    const i64 *pset, const i64 *pclr, const i64 *pleft, const i64 *pright,
    const i32 *l1_touch, const i32 *l1_fill,
    const i32 *l2_touch, const i32 *l2_fill,
    i64 *sched)
{
    i64 R = bcfg[B_CELLS];
    i64 threads = bcfg[B_THREADS];
    if (R < 1 || bcfg[B_BANKS] < 1)
        return 0;
    if (threads < 1)
        threads = 1;
    if (threads > R)
        threads = R;
    if (threads > bcfg[B_BANKS])
        threads = bcfg[B_BANKS];  /* one bank per worker */

    WalkBatch B = make_walk_batch(
        bcfg, cfg, dom, lines, sets, tpl, banks,
        pset, pclr, pleft, pright,
        l1_touch, l1_fill, l2_touch, l2_fill,
        sched);
    run_items(&B, walk_cell, R, threads);

    i64 issued = 0;
    for (i64 r = 0; r < R; r++)
        issued += sched[r * SCHED_SLOTS + SCHED_ISSUED];
    return issued;
}

/* pcfg[] scalar layout (must match profile_np._profile_pack_native) */
enum {
    P_CELLS, P_THREADS, P_SHARDS, P_SETS, P_WAYS,
    PCFG_SLOTS,
};

typedef struct {
    const i64 *const *lines;  /* R per-domain column pointers */
    const i64 *const *sets;
    const i64 *cell_n;        /* per-cell access counts */
    i64 *stack_lines;         /* R x num_sets x W */
    i64 *stack_depth;         /* R x num_sets */
    i64 *hist;                /* (R x shards) x (W + 1) output slots */
    i64 num_sets, W, shards;
} ProfileBatch;

/* WayProfiler.observe over one (cell, set-shard) work item: bounded
 * LRU stack per set, histogram[d] on a hit at depth d, histogram[W] on
 * a miss past every allocation.  Shards partition the set index space,
 * so work items of the same cell touch disjoint stacks, and within a
 * set the accesses are replayed in program order — exactly the
 * sequential profiler's updates. */
static void
profile_item(void *arg, i64 item, i64 worker)
{
    const ProfileBatch *P = (const ProfileBatch *)arg;
    (void)worker;
    i64 shards = P->shards;
    i64 r = item / shards;
    i64 shard = item % shards;
    const i64 *lcol = P->lines[r];
    const i64 *scol = P->sets[r];
    i64 n = P->cell_n[r];
    i64 W = P->W;
    i64 *stk_base = P->stack_lines + r * P->num_sets * W;
    i64 *dep_base = P->stack_depth + r * P->num_sets;
    i64 *hist = P->hist + item * (W + 1);
    for (i64 i = 0; i < n; i++) {
        i64 s = scol[i];
        if (s % shards != shard)
            continue;
        i64 line = lcol[i];
        i64 *stk = stk_base + s * W;
        i64 depth = dep_base[s];
        i64 d = 0;
        while (d < depth && stk[d] != line)
            d++;
        if (d < depth) {
            hist[d]++;
            for (; d > 0; d--)
                stk[d] = stk[d - 1];
            stk[0] = line;
        } else {
            hist[W]++;
            i64 nd = depth + 1;
            if (nd > W)
                nd = W;  /* bounded stack: the deepest entry falls off */
            for (i64 j = nd - 1; j > 0; j--)
                stk[j] = stk[j - 1];
            stk[0] = line;
            dep_base[s] = nd;
        }
    }
}

i64
repro_batch_profile(
    const i64 *pcfg,
    const i64 *const *lines, const i64 *const *sets,
    const i64 *cell_n,
    i64 *stack_lines, i64 *stack_depth,
    i64 *hist)
{
    i64 R = pcfg[P_CELLS];
    i64 threads = pcfg[P_THREADS];
    i64 shards = pcfg[P_SHARDS];
    if (R < 1)
        return 0;
    if (shards < 1)
        shards = 1;
    i64 total = R * shards;
    if (threads < 1)
        threads = 1;
    if (threads > total)
        threads = total;

    ProfileBatch P = {
        lines, sets, cell_n,
        stack_lines, stack_depth, hist,
        pcfg[P_SETS], pcfg[P_WAYS], shards,
    };
    run_items(&P, profile_item, total, threads);
    return total;
}
