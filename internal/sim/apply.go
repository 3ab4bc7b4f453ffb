// Migration apply engine: the real push-thread pool behind sim.Run.
//
// The paper's TS-Daemon applies each window's migration plan with PT
// parallel kernel push threads. Earlier versions of this simulator only
// modeled that (apply serially, divide the modeled time by PT); here the
// plan really is applied by PT goroutines against the shared mem.Manager.
//
// The unit of work is a span (mem.SpanPages pages of a move's region);
// jobs, (move, span) ascending, are the plan's page order. Each splits into
// a pure prepare (mem.PrepareSpanMigration — all decompression and
// compression, under the span read lock, no shared state) and a commit
// (every placement decision and counter).
//
// Determinism contract: results are byte-identical for any push-thread
// count and across repeated runs. Workers claim jobs in plan order and
// prepare each on their own scratch; a worker whose job is not at the turn
// (the lowest job not yet committed) parks it and claims the next, at most
// lookAhead past the turn. Whichever worker finds the turn's job ready
// commits it on its own scratch, then every following ready one, so
// commits land one at a time in ascending job index — the serial apply's
// sequence, and so its pool layouts, fallback placements and counters. A
// prepare that ran before an earlier job moved the same pages is caught by
// commitPage, which re-prepares a relocated page in place. Each span
// commits into its move's one running MigrationResult, so a move's latency
// sums page by page as a serial sweep's. The pool cannot deadlock: the
// turn's job is always being prepared or committed by a worker that does
// not wait; only a worker with no job in hand waits, for the turn to move.
//
// A hard error or a recovered panic (a content source, a codec) in a span
// of move i ends move i: its later spans are released uncommitted and its
// outcome reads zero; later moves still commit.
//
// With one worker — a prefetch, a test at PT 1 — the pool is the caller's
// goroutine, committing each job as soon as it is prepared: no second
// code path.
//
// Observability rides along behind a nil check: with an applyTrace,
// workers also accumulate the wall-clock prepare/commit split; the waits
// for the turn to come within look-ahead (blocked awaits; their wall time
// is the stall) are always counted. None of it feeds back into placement.
// A window's move events are not collected here at all: event i is a pure
// function of (moves[i], results[i]) — see moveEvent — and the results are
// the same at every worker count.
package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tierscape/internal/mem"
	"tierscape/internal/obs"
	"tierscape/internal/policy"
)

// lookAhead is how many jobs past the turn a push thread may claim. It
// bounds the prepared spans waiting to commit, and their slabs.
const lookAhead = 4 * pushThreads

// applyTrace collects one window's apply-phase observability. A nil
// *applyTrace disables all of it; the engine's only residual cost is the
// nil checks.
type applyTrace struct {
	prepareNs atomic.Int64
	commitNs  atomic.Int64
	sched     obs.SchedulerStats
}

// moveEvent builds the deterministic event of window's job i from the
// planned move and its applied outcome. Full stays false: no tier fills.
func moveEvent(window, i int, mv policy.Move, out mem.MigrationResult) obs.MoveEvent {
	return obs.MoveEvent{
		Window:    window,
		Job:       i,
		Region:    int64(mv.Region),
		From:      int(mv.From),
		To:        int(mv.Dest),
		Moved:     out.Moved,
		Rejected:  out.Rejected,
		Skipped:   out.Skipped,
		LatencyNs: out.LatencyNs,
	}
}

// movePanic turns a panic on a push thread — a content source, a codec —
// into move i's hard error, so it ends the step instead of the process.
func movePanic(r any, i int, mv policy.Move) error {
	return fmt.Errorf("sim: push thread panicked on move %d (region %d to tier %d): %v\n%s",
		i, mv.Region, mv.Dest, r, debug.Stack())
}

// applyMoves applies one window's migration plan with `workers` push
// threads and returns the per-move outcomes indexed like moves. It is the
// only way the simulator moves a region: the plan's moves and the access
// loop's prefetches both come through here. scratch holds
// one mem.MigrationScratch per push thread (at least `workers`), owned by
// the caller across windows: worker w uses scratch[w] and nothing else, so
// buffers and codec state warm up once per run. Hard errors are reported
// for the lowest move index, independent of goroutine interleaving, beside
// outcomes in which the failed moves read zero. tr, when non-nil, collects
// the window's apply observability.
func applyMoves(m *mem.Manager, moves []policy.Move, scratch []mem.MigrationScratch, workers int, tr *applyTrace) ([]mem.MigrationResult, error) {
	n := len(moves)
	results := make([]mem.MigrationResult, n)
	if n == 0 {
		return results, nil
	}
	p := applyPool{m: m, moves: moves, results: results, errs: make([]error, n), tr: tr}
	p.cond.L = &p.mu
	for _, mv := range moves {
		p.jobs += spans(m, mv)
	}
	workers = min(workers, p.jobs)
	if workers <= 1 {
		p.work(&scratch[0])
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(sc *mem.MigrationScratch) {
				defer wg.Done()
				p.work(sc)
			}(&scratch[w])
		}
		wg.Wait()
	}
	if tr != nil {
		tr.sched = obs.SchedulerStats{Jobs: p.jobs, BlockedAwaits: p.blocked, StallNs: p.stallNs}
	}
	for _, err := range p.errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// spans is move mv's job count: its region's spans, or one to report a bad region.
func spans(m *mem.Manager, mv policy.Move) int {
	start, end := m.RegionSpan(mv.Region)
	return max(1, int(end-start+mem.SpanPages-1)/mem.SpanPages)
}

// applyPool is one window's pooled apply: the plan, where its outcomes
// land, and the turn that orders the commits. mu guards the fields below
// it; results and errs belong to the worker holding the turn.
type applyPool struct {
	m       *mem.Manager
	moves   []policy.Move
	results []mem.MigrationResult
	errs    []error
	tr      *applyTrace

	mu      sync.Mutex
	cond    sync.Cond             // signalled when the turn advances
	jobs    int                   // spans in the plan
	next    int                   // the next job to claim
	move    int                   // next's move
	span    int                   // next's span within its move
	turn    int                   // the one job that may commit: the lowest not yet committed
	parked  [lookAhead]parkedSpan // job k's prepared span at k % lookAhead
	blocked int                   // waits for the turn to come within look-ahead
	stallNs int64                 // wall time those waits took
}

// parkedSpan is a prepared job waiting for its turn to commit.
type parkedSpan struct {
	move  int
	pr    *mem.PreparedRegion
	err   error // the prepare's
	ready bool
}

// work is one push thread: it commits the turn's job whenever that is
// ready, else claims and prepares the next job within look-ahead, else
// waits for the turn to move, until no job is left to claim.
func (p *applyPool) work(sc *mem.MigrationScratch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if slot := &p.parked[p.turn%lookAhead]; slot.ready {
			ps := *slot
			*slot = parkedSpan{}
			p.mu.Unlock()
			p.commit(ps, sc)
			p.mu.Lock()
			p.turn++
			p.cond.Broadcast()
			continue
		}
		if p.next == p.jobs {
			return
		}
		if p.next >= p.turn+lookAhead {
			p.blocked++
			t0 := time.Now()
			for p.next < p.jobs && p.next >= p.turn+lookAhead {
				p.cond.Wait()
			}
			p.stallNs += int64(time.Since(t0))
			continue
		}
		k, i, j := p.next, p.move, p.span
		p.next++
		if p.span++; p.span == spans(p.m, p.moves[i]) {
			p.move, p.span = p.move+1, 0
		}
		p.mu.Unlock()
		mv := p.moves[i]
		var pr *mem.PreparedRegion
		err := p.run(i, false, func() (err error) {
			pr, err = p.m.PrepareSpanMigration(mv.Region, j, mv.Dest, sc)
			return err
		})
		p.mu.Lock()
		p.parked[k%lookAhead] = parkedSpan{move: i, pr: pr, err: err, ready: true}
	}
}

// commit lands the turn's span in its move's outcome on the committing
// worker's scratch, or releases it once the move has failed. Either
// consumes the span, which may then be in its preparer's hands again.
func (p *applyPool) commit(ps parkedSpan, sc *mem.MigrationScratch) {
	i, err := ps.move, ps.err
	if p.errs[i] != nil {
		ps.pr.Release()
		return
	}
	out := &p.results[i]
	if err == nil {
		err = p.run(i, true, func() error { return p.m.CommitMigrationInto(ps.pr, sc, out) })
	}
	if err != nil {
		p.errs[i], *out = err, mem.MigrationResult{}
	}
}

// run runs f, move i's prepare or commit, turning a panic into an error
// and, when traced, adding its wall time to the prepare or commit total.
func (p *applyPool) run(i int, commit bool, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = movePanic(r, i, p.moves[i])
		}
	}()
	if p.tr == nil {
		return f()
	}
	total := &p.tr.prepareNs
	if commit {
		total = &p.tr.commitNs
	}
	defer func(t0 time.Time) { total.Add(int64(time.Since(t0))) }(time.Now())
	return f()
}
