/* Epoch-batched replay: advance a roster of resumable cells, one call
 * per epoch, controller logic in the host between calls.
 *
 * repro_epoch_batch shares repro_batch_walk's template bank and bank
 * layout (batchwalk.c), but keeps one persistent bank per cell and,
 * instead of running every cell to completion, advances only the cells
 * named in `active` — a caller-owned index list `[count, idx0, idx1,
 * ...]` — each up to its own per-cell cfg[CFG_STOP] target.  A cell
 * fills its bank from the template in its first work item
 * (sched[SCHED_FILLED] records that), so the caller allocates the banks
 * uninitialized.  All walk state (LLC tags/sharers/valid/PLRU, per-core
 * L1/L2 tags + recency, per-domain counters, cursors, virtual times, the
 * scheduler frontier in sched[]) lives in the Python-owned arrays and
 * survives between calls, so the host can read each cell's per-epoch
 * counter deltas, run its DynamicPartitionController decision, rewrite
 * the dom way-mask words flush-free, bump the stop targets, and call
 * again — a whole dynamic-partitioning roster driven by a few C calls
 * per epoch instead of one Python driver per cell.
 *
 * Threading comes from batchwalk.c's compile-probed run_items pool
 * (OpenMP -> pthreads -> serial; repro_batch_threading reports which),
 * clamped to the active count.  Every work item writes only its own
 * cell's bank and slices, so results are thread-count-invariant by
 * construction and bit-identical to driving repro_multi_walk once per
 * cell.
 */

#include "batchwalk.c"

typedef struct {
    const WalkBatch *B;
    const i64 *active;  /* active[0] = count, active[1..] = cell indices */
} EpochBatch;

static void
epoch_cell(void *arg, i64 it, i64 worker)
{
    const EpochBatch *E = (const EpochBatch *)arg;
    const WalkBatch *B = E->B;
    i64 r = E->active[1 + it];
    i64 *bank = bank_at(B, r);
    i64 *filled = B->sched + r * SCHED_SLOTS + SCHED_FILLED;
    (void)worker;
    if (!*filled) {
        fill_bank(B, bank);
        *filled = 1;
    }
    walk_on(B, r, bank);
}

i64
repro_epoch_batch(
    const i64 *bcfg,
    const i64 *active,
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
    i64 count = active[0];
    if (R < 1 || count < 1 || bcfg[B_BANKS] != R)
        return 0;
    if (threads < 1)
        threads = 1;
    if (threads > count)
        threads = count;

    WalkBatch B = make_walk_batch(
        bcfg, cfg, dom, lines, sets, tpl, banks,
        pset, pclr, pleft, pright,
        l1_touch, l1_fill, l2_touch, l2_fill,
        sched);
    EpochBatch E = { &B, active };
    run_items(&E, epoch_cell, count, threads);

    i64 issued = 0;
    for (i64 k = 0; k < count; k++)
        issued += sched[active[1 + k] * SCHED_SLOTS + SCHED_ISSUED];
    return issued;
}
