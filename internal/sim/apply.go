// Migration apply engine: the real push-thread pool behind sim.Run.
//
// The paper's TS-Daemon applies each window's migration plan with PT
// parallel kernel push threads. Earlier versions of this simulator only
// modeled that (apply serially, divide the modeled time by PT); here the
// plan really is applied by PT goroutines against the shared mem.Manager.
//
// Determinism contract: results are byte-identical for any PushThreads
// value, any commit batch size, and across repeated runs. Each move
// splits into a pure prepare (mem.PrepareRegionMigration — all
// decompression/compression compute, no shared state) that workers run
// concurrently, and a commit (every placement decision, admission check
// and counter). Commits are sequenced by the conflict-aware scheduler in
// schedule.go: each order-sensitive tier sees the commits touching it in
// ascending job order (the serial execution's projection onto that tier),
// and commits with disjoint footprints overlap. Pool layouts, admission
// decisions and counters therefore match a single-threaded apply
// bit-for-bit, while float latency sums are reduced from the job-indexed
// results array after the pool drains.
//
// Two refinements make the commit phase page-granular without touching
// the contract:
//
//   - Sub-region commit chunks with early footprint release. When a
//     batch size is set, an unchained job commits through
//     mem.CommitBatch and hands each footprint tier's stream to its
//     successor as soon as the job's last page touching that tier has
//     committed (CommitChunk.Released → commitScheduler.release) — the
//     successor overlaps with the job's remaining pages, which by
//     construction touch only tiers the job still heads. Chained jobs
//     (a same-region predecessor) always commit whole-region: their
//     prepare can predate the predecessor's commit, so prepare-time page
//     footprints may be stale (commitPage re-prepares relocated pages)
//     and cannot drive early release. Managers beyond TierSet's 64-tier
//     limit degrade to whole-region commits too — planFootprints
//     serializes them on one artificial stream that the real per-page
//     footprints know nothing about. Byte-identity across batch sizes
//     holds because mem.CommitBatch accumulates the region total
//     per-page in page order across chunks (one float addition sequence,
//     regardless of chunking) and each tier still sees whole jobs in
//     ascending order.
//
//   - Stall-aware prepare dispatch. Workers used to claim jobs in plan
//     order off a shared counter, so a worker could sink its prepare
//     into a job that then blocks behind a long dependency chain while
//     head-of-stream jobs sat unprepared. Workers now claim jobs in a
//     deterministic priority permutation — ascending longest-path depth
//     over the waits-on DAG (stream predecessors plus region chains),
//     ties broken by primary tier then job index. The order is
//     topological (every waits-on edge strictly increases depth), which
//     keeps the pool deadlock-free: among claimed-but-uncommitted jobs,
//     one of minimal depth has all predecessors committed, so its worker
//     is running, not blocked. When a commit completes, the scheduler
//     reports the lowest job it made eligible and the freed worker
//     claims it directly (it can never block), batching same-tier
//     successors onto the worker whose completion unblocked them. The
//     dispatch order only affects wall-clock interleaving — commit order
//     per tier is still enforced by the scheduler — so results are
//     unchanged.
//
// Observability rides along behind a nil check: with no applyTrace the
// engine does exactly the work above and nothing else. With one, workers
// additionally record per-move events into per-worker shards (merged in
// job order by the caller — see obs.Shards for why that is
// deterministic), accumulate the wall-clock prepare/commit split, and the
// scheduler's counters are collected after the pool drains. None of the
// traced values feed back into placement, so tracing can never perturb
// results. The serial and pooled paths finish every move through the
// same finishMove helper, so their traced event streams are identical by
// construction, not by parallel maintenance.
package sim

import (
	"errors"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tierscape/internal/mem"
	"tierscape/internal/obs"
	"tierscape/internal/policy"
)

// moveOutcome is one applied move's accounting plus the signal the bare
// MigrationResult doesn't carry: whether the commit observed a full
// destination (mem.ErrTierFull), which the engine treats as benign and
// would otherwise swallow.
type moveOutcome struct {
	mem.MigrationResult
	Full bool
}

// applyTrace collects one window's apply-phase observability. A nil
// *applyTrace disables all of it; the engine's only residual cost is the
// nil checks.
type applyTrace struct {
	window    int
	shards    *obs.Shards
	prepareNs atomic.Int64
	commitNs  atomic.Int64
	sched     obs.SchedulerStats
}

// newApplyTrace returns a trace for one window's apply with capacity for
// `workers` event shards.
func newApplyTrace(window, workers int) *applyTrace {
	return &applyTrace{window: window, shards: obs.NewShards(workers)}
}

// event builds the deterministic move event for job i.
func (tr *applyTrace) event(i int, mv policy.Move, out moveOutcome) obs.MoveEvent {
	return obs.MoveEvent{
		Window:    tr.window,
		Job:       i,
		Region:    int64(mv.Region),
		From:      int(mv.From),
		To:        int(mv.Dest),
		Moved:     out.Moved,
		Rejected:  out.Rejected,
		Skipped:   out.Skipped,
		Full:      out.Full,
		LatencyNs: out.LatencyNs,
	}
}

// finishMove settles job i's outcome: a full destination
// (mem.ErrTierFull) is benign — the manager completed the sweep and its
// partial accounting stays valid, matching the serial migrateRegion
// helper — and lands on the outcome's Full flag; any other error is
// returned as the job's hard failure and records nothing. Both the
// serial and pooled paths finish every move here, so the traced event
// streams they produce are identical by construction.
func finishMove(tr *applyTrace, shard, i int, mv policy.Move, mr mem.MigrationResult, err error, results []moveOutcome) error {
	full := errors.Is(err, mem.ErrTierFull)
	if err != nil && !full {
		return err
	}
	results[i] = moveOutcome{MigrationResult: mr, Full: full}
	if tr != nil {
		tr.shards.Record(shard, tr.event(i, mv, results[i]))
	}
	return nil
}

// primaryTier is the dispatch tie-breaker: the lowest tier in a job's
// footprint, or 64 (past every real tier) for an empty footprint so
// footprint-free jobs sort after contended ones at equal depth.
func primaryTier(fp mem.TierSet) int {
	if fp == 0 {
		return 64
	}
	return bits.TrailingZeros64(uint64(fp))
}

// dispatchOrder returns the permutation workers claim prepares in:
// ascending longest-path depth over the waits-on DAG, ties broken by
// primary tier (so same-tier runs of jobs are claimed together) and then
// job index (determinism). Job i waits on the previous job in each of
// its footprint tiers' streams and on its same-region predecessor; both
// kinds of predecessor have a strictly smaller depth, so the order is
// topological: by the time a worker claims a job, every job it can wait
// on has already been claimed.
func dispatchOrder(fps []mem.TierSet, prev []int) []int {
	n := len(fps)
	depth := make([]int, n)
	var lastInStream [65]int
	for t := range lastInStream {
		lastInStream[t] = -1
	}
	for i := 0; i < n; i++ {
		d := 0
		for b := uint64(fps[i]); b != 0; b &= b - 1 {
			t := bits.TrailingZeros64(b)
			if j := lastInStream[t]; j >= 0 && depth[j]+1 > d {
				d = depth[j] + 1
			}
			lastInStream[t] = i
		}
		if j := prev[i]; j >= 0 && depth[j]+1 > d {
			d = depth[j] + 1
		}
		depth[i] = d
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if depth[ia] != depth[ib] {
			return depth[ia] < depth[ib]
		}
		pa, pb := primaryTier(fps[ia]), primaryTier(fps[ib])
		if pa != pb {
			return pa < pb
		}
		return ia < ib
	})
	return order
}

// applyMoves applies one window's migration plan with `workers` push
// threads and returns the per-move outcomes indexed like moves. scratch
// holds one mem.MigrationScratch per push thread (at least `workers` of
// them), owned by the caller across windows: worker w uses scratch[w] and
// nothing else, so buffers and codec state warm up once per run. batch,
// when positive, is the commit granularity in pages: unchained jobs
// commit in sub-region chunks and release footprint tiers early (see the
// package comment); zero or negative means whole-region commits, the
// historical behavior. The serial path ignores batch — with one worker
// there is no successor to hand a stream to, and whole-region commits
// are the same page sequence under one lock acquisition instead of many.
// Hard errors are reported for the lowest job index so the failure is
// independent of goroutine interleaving. tr, when non-nil, collects the
// window's apply observability.
func applyMoves(m *mem.Manager, moves []policy.Move, scratch []mem.MigrationScratch, workers, batch int, tr *applyTrace) ([]moveOutcome, error) {
	n := len(moves)
	results := make([]moveOutcome, n)
	if n == 0 {
		return results, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: fused prepare+commit per region on the first
		// push thread's scratch. A traced serial apply takes
		// the same prepare/commit split as the pool so its wall-time split
		// is meaningful; split and fused produce byte-identical results
		// (the push-thread determinism contract), so tracing cannot
		// perturb the run.
		sc := &scratch[0]
		for i, mv := range moves {
			var mr mem.MigrationResult
			var err error
			if tr == nil {
				mr, err = m.MigrateRegionScratch(mv.Region, mv.Dest, sc)
			} else {
				t0 := time.Now()
				var pr *mem.PreparedRegion
				pr, err = m.PrepareRegionMigrationScratch(mv.Region, mv.Dest, sc)
				t1 := time.Now()
				tr.prepareNs.Add(int64(t1.Sub(t0)))
				if err == nil {
					mr, err = m.CommitRegionMigration(pr)
					tr.commitNs.Add(int64(time.Since(t1)))
				}
			}
			if err := finishMove(tr, 0, i, mv, mr, err, results); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	fps, prev := planFootprints(m, moves)
	if len(m.Tiers()) > 64 {
		// planFootprints degraded to one artificial serialization stream;
		// the real per-page footprints inside mem.CommitBatch.Released
		// would release it early and break the global order. Whole-region
		// commits only.
		batch = 0
	}
	sched := newCommitScheduler(len(m.Tiers()), fps, prev, tr != nil)
	order := dispatchOrder(fps, prev)
	claimed := make([]atomic.Bool, n)
	errs := make([]error, n)
	var cursor atomic.Int64
	cursor.Store(-1)

	// runJob prepares, awaits and commits job i, returning the lowest job
	// its completion made eligible if this worker managed to claim it
	// (that job can never block in await), or -1.
	runJob := func(shard, i int, sc *mem.MigrationScratch) int {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		pr, err := m.PrepareRegionMigrationScratch(moves[i].Region, moves[i].Dest, sc)
		if tr != nil {
			tr.prepareNs.Add(int64(time.Since(t0)))
		}
		// Commit once every footprint tier's stream reaches this job;
		// every job must release its footprint (done) even after a
		// prepare error, or successors would wait forever.
		sched.await(i)
		var mr mem.MigrationResult
		if err == nil {
			var t1 time.Time
			if tr != nil {
				t1 = time.Now()
			}
			if batch > 0 && prev[i] < 0 {
				var chunks int64
				var full bool
				for {
					ck, cerr := m.CommitBatch(pr, batch)
					chunks++
					mr = ck.Total
					if errors.Is(cerr, mem.ErrTierFull) {
						// Sticky across chunks so the job's Full flag
						// matches a whole-region commit's.
						full = true
						cerr = nil
					}
					if cerr != nil {
						err = cerr
						break
					}
					if ck.Done {
						if full {
							err = mem.ErrTierFull
						}
						break
					}
					if ck.Released != 0 {
						sched.release(i, ck.Released)
					}
				}
				sched.noteBatchCommits(chunks)
			} else {
				mr, err = m.CommitRegionMigration(pr)
			}
			if tr != nil {
				tr.commitNs.Add(int64(time.Since(t1)))
			}
		}
		errs[i] = finishMove(tr, shard, i, moves[i], mr, err, results)
		next := sched.done(i)
		if next >= 0 && claimed[next].CompareAndSwap(false, true) {
			return next
		}
		return -1
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			sc := &scratch[shard]
			for {
				k := int(cursor.Add(1))
				if k >= n {
					return
				}
				i := order[k]
				if !claimed[i].CompareAndSwap(false, true) {
					continue // stolen by the worker that made it eligible
				}
				for i >= 0 {
					i = runJob(shard, i, sc)
				}
			}
		}(w)
	}
	wg.Wait()
	if tr != nil {
		tr.sched = sched.Stats()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
