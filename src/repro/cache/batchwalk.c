/* Batched replay: one call, R independent replays, parallel inside C.
 *
 *   repro_batch_walk     R independent multiwalk cells (whole co-runs or
 *                        the allocations of a measured way sweep).  The
 *                        caller passes ONE template bank — the full flat
 *                        state multiwalk.c operates on (LLC tags/sharers/
 *                        valid/PLRU, all-core L1/L2 tags + recency, back-
 *                        invalidation counters; see BankLayout) — and one
 *                        working bank per worker thread.  A cell's work
 *                        item resets its worker's bank to the template
 *                        and runs `repro_multi_walk` there, so every cell
 *                        starts from an identical state and the replay is
 *                        bit-identical to calling the epoch kernel once
 *                        per cell, in any thread order.  The reset
 *                        restores only the LLC sets the worker's previous
 *                        cell may have written — the sets of the accesses
 *                        it issued, marked in the worker's caller-owned
 *                        reset record — plus the L1/L2 of the cores it
 *                        may have written (its own, and every core whose
 *                        template L1/L2 holds a line) and the bi
 *                        counters; a worker's first cell in a call
 *                        copies the whole template.  A roster holds
 *                        `threads` banks, not
 *                        R: each cell's results live in its own dom/sched
 *                        slices, never in a bank.
 *                        A cell that profiles its way utility passes its
 *                        own zeroed UMON buffer in `umon` (one pointer
 *                        per cell, NULL for a cell that does not
 *                        profile): the UMON stacks and histograms are
 *                        per-cell results too, so they never live in the
 *                        reused worker banks.
 *
 * Threading is one pthread pool (run_items, shared with epochbatch.c):
 * the calling thread and up to threads - 1 workers claim work items from
 * an atomic counter.  Each item gets its worker index (0 <= worker <
 * threads) and writes results only into caller-owned per-item output
 * slots (each cell's own dom/sched slice, each worker's own bank), never
 * into shared accumulators, so the reduction order is deterministic and
 * the output is thread-count-invariant by construction.
 */

#include <pthread.h>
#include <string.h>

#include "multiwalk.c"

typedef void (*batch_item_fn)(void *ctx, i64 item, i64 worker);

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

/* bcfg[] scalar layout (must match kernel.NativeBatchReplay) */
enum {
    B_CELLS, B_THREADS, B_NMAX, B_LLC_SETS, B_W,
    B_L1_SETS, B_L2_SETS, B_NUM_CORES, B_BANKS,
    BCFG_SLOTS,
};

/* One bank is one cell's flat walk state: these sections, back to back,
 * as word offsets from the bank base (must match TemplateBank.layout()
 * in kernel.py).  The template and every cell or worker bank share the layout, so
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
    i64 *const *umon;              /* R UMON buffers (NULL: no profile) */
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
    i64 *sched, i64 *const *umon)
{
    WalkBatch B = {
        cfg, dom, lines, sets, tpl, banks,
        pset, pclr, pleft, pright,
        l1_touch, l1_fill, l2_touch, l2_fill,
        sched, umon, bcfg[B_NMAX], bank_layout(bcfg),
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
        B->sched + r * SCHED_SLOTS,
        B->umon[r]);
}

/* A one-shot roster's per-worker reset record, caller-owned
 * (reset_words words per worker): RESET_FULL while the bank must be
 * refilled whole, else 0; the core bits of the previous cell's domains;
 * then one mark bit per LLC set. */
enum { RESET_STATE, RESET_CORES, RESET_MARKS };
#define RESET_FULL 1

static i64
reset_words(i64 llc_sets)
{
    return RESET_MARKS + (llc_sets + 63) / 64;
}

typedef struct {
    WalkBatch B;
    i64 *reset;  /* bcfg[B_BANKS] reset records */
    i64 llc_sets, W, num_cores, l1_sets, l2_sets;
    /* Cores whose template L1 or L2 holds a line: an LLC eviction in any
     * cell may back-invalidate their inner caches. */
    uint64_t tpl_cores;
} ShotBatch;

/* The cores whose template L1 or L2 holds at least one valid line. */
static uint64_t
resident_cores(const ShotBatch *S)
{
    const WalkBatch *B = &S->B;
    const BankLayout *L = &B->L;
    uint64_t cores = 0;
    for (i64 c = 0; c < S->num_cores; c++) {
        const i64 *v1 = B->tpl + L->l1_valid + c * S->l1_sets;
        const i64 *v2 = B->tpl + L->l2_valid + c * S->l2_sets;
        i64 any = 0;
        for (i64 s = 0; s < S->l1_sets; s++)
            any |= v1[s];
        for (i64 s = 0; s < S->l2_sets; s++)
            any |= v2[s];
        if (any)
            cores |= (uint64_t)1 << c;
    }
    return cores;
}

/* Copy one section slice [off, off + n) from the template into bank. */
static void
restore(const WalkBatch *B, i64 *bank, i64 off, i64 n)
{
    memcpy(bank + off, B->tpl + off, (size_t)n * sizeof(i64));
}

/* Reset a worker's bank to the template before its next cell: the
 * marked LLC rows (tags, sharers, valid, PLRU), the L1/L2 of every core
 * the previous cell may have written, and the bi counters.  A cell
 * writes the inner caches of its own cores, and back-invalidates only
 * lines some inner cache holds: template-resident lines (the
 * tpl_cores) or lines its own cores filled.  A bank not yet filled in
 * this call takes the full copy. */
static void
reset_bank(const ShotBatch *S, i64 *bank, i64 *rec)
{
    const WalkBatch *B = &S->B;
    const BankLayout *L = &B->L;
    uint64_t *marks = (uint64_t *)(rec + RESET_MARKS);
    i64 words = reset_words(S->llc_sets) - RESET_MARKS;
    i64 W = S->W;
    if (rec[RESET_STATE] == RESET_FULL) {
        fill_bank(B, bank);
        memset(marks, 0, (size_t)words * sizeof(uint64_t));
    } else {
        for (i64 k = 0; k < words; k++) {
            uint64_t m = marks[k];
            marks[k] = 0;
            while (m) {
                i64 s = k * 64 + __builtin_ctzll(m);
                m &= m - 1;
                i64 row = s * W;
                memcpy(bank + L->llc_tags + row, B->tpl + L->llc_tags + row,
                       (size_t)W * sizeof(i64));
                memcpy(bank + L->llc_sharers + row,
                       B->tpl + L->llc_sharers + row,
                       (size_t)W * sizeof(i64));
                bank[L->llc_valid + s] = B->tpl[L->llc_valid + s];
                bank[L->llc_plru + s] = B->tpl[L->llc_plru + s];
            }
        }
        uint64_t cores = (uint64_t)rec[RESET_CORES] | S->tpl_cores;
        i64 s1 = S->l1_sets, s2 = S->l2_sets;
        for (i64 c = 0; c < S->num_cores; c++) {
            if (!(cores >> c & 1))
                continue;
            restore(B, bank, L->l1_tags + c * s1 * 8, s1 * 8);
            restore(B, bank, L->l1_valid + c * s1, s1);
            restore(B, bank, L->l1_state + c * s1, s1);
            restore(B, bank, L->l2_tags + c * s2 * 8, s2 * 8);
            restore(B, bank, L->l2_valid + c * s2, s2);
            restore(B, bank, L->l2_plru + c * s2, s2);
        }
        restore(B, bank, L->bi, L->stride - L->bi);
    }
    rec[RESET_STATE] = 0;
}

/* Mark the LLC sets cell r may have written: each domain's first
 * min(n, accesses issued) set-column entries.  Every LLC write lands in
 * the set of an access the cell issued, so this is a superset of the
 * rows it wrote.  Record the cell's cores too. */
static void
mark_sets(const ShotBatch *S, i64 r, i64 *rec)
{
    const WalkBatch *B = &S->B;
    const i64 *dom = B->dom + r * B->nmax * DOM_STRIDE;
    uint64_t *marks = (uint64_t *)(rec + RESET_MARKS);
    i64 N = B->cfg[r * CFG_SLOTS + CFG_N];
    uint64_t cores = 0;
    for (i64 d = 0; d < N; d++) {
        const i64 *p = dom + d * DOM_STRIDE;
        cores |= (uint64_t)p[D_CBIT];
        const i64 *scol = B->sets[r * B->nmax + d];
        i64 used = p[D_H1] + p[D_H2] + p[D_H3] + p[D_M3];
        if (used > p[D_N])
            used = p[D_N];
        for (i64 i = 0; i < used; i++)
            marks[scol[i] >> 6] |= (uint64_t)1 << (scol[i] & 63);
    }
    rec[RESET_CORES] = (i64)cores;
}

/* One-shot cell: reset the worker's bank, then replay the cell in it. */
static void
walk_cell(void *arg, i64 r, i64 worker)
{
    const ShotBatch *S = (const ShotBatch *)arg;
    i64 *bank = bank_at(&S->B, worker);
    i64 *rec = S->reset + worker * reset_words(S->llc_sets);
    reset_bank(S, bank, rec);
    walk_on(&S->B, r, bank);
    mark_sets(S, r, rec);
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
    i64 *sched,
    i64 *const *umon,
    i64 *reset)
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

    ShotBatch S = {
        make_walk_batch(
            bcfg, cfg, dom, lines, sets, tpl, banks,
            pset, pclr, pleft, pright,
            l1_touch, l1_fill, l2_touch, l2_fill,
            sched, umon),
        reset, bcfg[B_LLC_SETS], bcfg[B_W],
        bcfg[B_NUM_CORES], bcfg[B_L1_SETS], bcfg[B_L2_SETS], 0,
    };
    S.tpl_cores = resident_cores(&S);
    /* A worker's first cell in this call refills its bank whole. */
    for (i64 k = 0; k < bcfg[B_BANKS]; k++)
        reset[k * reset_words(S.llc_sets) + RESET_STATE] = RESET_FULL;
    run_items(&S, walk_cell, R, threads);

    i64 issued = 0;
    for (i64 r = 0; r < R; r++)
        issued += sched[r * SCHED_SLOTS + SCHED_ISSUED];
    return issued;
}
