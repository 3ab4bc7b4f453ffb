// Migration apply engine: the real push-thread pool behind sim.Run.
//
// The paper's TS-Daemon applies each window's migration plan with PT
// parallel kernel push threads. Earlier versions of this simulator only
// modeled that (apply serially, divide the modeled time by PT); here the
// plan really is applied by PT goroutines against the shared mem.Manager.
//
// Determinism contract: results are byte-identical for any push-thread
// count and across repeated runs. Each move splits into a pure prepare
// (mem.PrepareRegionMigration — all decompression/compression compute,
// under the region read lock, no shared state) and a commit (every
// placement decision, admission check and counter). Workers claim jobs in
// plan order off one counter and prepare concurrently on their own
// scratch; each then waits for its turn and commits its own job, so
// commits land one at a time in ascending job index — the commit sequence
// is the serial apply's, and so are pool layouts, admission decisions and
// counters. A prepare that ran before an earlier job moved the same
// region's pages is caught by commitPage, which re-prepares a relocated
// page in place. Float latency sums are reduced from the job-indexed
// results array after the pool drains. The pool cannot deadlock: jobs are
// claimed in ascending order, so the lowest uncommitted job is always
// claimed by a worker that is preparing or committing, never waiting.
//
// A panic on a push thread (a content source, a codec) is recovered in the
// worker and becomes that job's hard error; the turn still advances, so no
// successor waits forever.
//
// With one worker — a one-move plan, a prefetch, a test at PT 1 — the pool
// is the caller's goroutine: it claims the jobs in order and runs each one
// inline, the turn always already its own. There is no second code path,
// so a traced one-worker apply times exactly what an untraced one runs.
//
// Observability rides along behind a nil check: with no applyTrace the
// engine does exactly the work above and nothing else. With one, workers
// additionally accumulate the wall-clock prepare/commit split and count
// the waits for the turn (a blocked await; its wall time is the stall).
// None of the traced values feed back into placement, so tracing can never
// perturb results. A window's move events are not collected here at all:
// event i is a pure function of (moves[i], results[i]) — see moveEvent —
// so the caller reads them off the job-indexed results, which are the same
// at every worker count.
package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
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
	prepareNs atomic.Int64
	commitNs  atomic.Int64
	sched     obs.SchedulerStats
}

// moveEvent builds the deterministic event of window's job i from the
// planned move and its applied outcome.
func moveEvent(window, i int, mv policy.Move, out moveOutcome) obs.MoveEvent {
	return obs.MoveEvent{
		Window:    window,
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
// partial accounting stays valid — and lands on the outcome's Full flag;
// any other error is returned as the job's hard failure and records
// nothing. Every move, planned or prefetched, finishes here.
func finishMove(i int, mr mem.MigrationResult, err error, results []moveOutcome) error {
	full := errors.Is(err, mem.ErrTierFull)
	if err != nil && !full {
		return err
	}
	results[i] = moveOutcome{MigrationResult: mr, Full: full}
	return nil
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
// loop's prefetches both come through here. scratch holds one
// mem.MigrationScratch per push thread (at least `workers` of them), owned
// by the caller across windows: worker w uses scratch[w] and nothing else,
// so buffers and codec state warm up once per run. Hard errors are
// reported for the lowest job index so the failure is independent of
// goroutine interleaving. tr, when non-nil, collects the window's apply
// observability.
func applyMoves(m *mem.Manager, moves []policy.Move, scratch []mem.MigrationScratch, workers int, tr *applyTrace) ([]moveOutcome, error) {
	n := len(moves)
	results := make([]moveOutcome, n)
	if n == 0 {
		return results, nil
	}
	p := applyPool{m: m, moves: moves, results: results, errs: make([]error, n), tr: tr}
	p.cond.L = &p.mu
	workers = min(workers, n)
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
		tr.sched = obs.SchedulerStats{Jobs: n, BlockedAwaits: p.blocked, StallNs: p.stallNs}
	}
	for _, err := range p.errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// applyPool is one window's pooled apply: the plan, where its outcomes
// land, and the turn that orders the commits.
type applyPool struct {
	m       *mem.Manager
	moves   []policy.Move
	results []moveOutcome
	errs    []error
	tr      *applyTrace
	cursor  atomic.Int64 // next unclaimed job

	mu      sync.Mutex
	cond    sync.Cond
	turn    int   // the one job that may commit: the lowest not yet finished
	blocked int   // awaits that found another job holding the turn
	stallNs int64 // wall time those awaits waited
}

// work is one push thread: it claims jobs in plan order off the shared
// cursor and runs each until none is left.
func (p *applyPool) work(sc *mem.MigrationScratch) {
	for {
		i := int(p.cursor.Add(1)) - 1
		if i >= len(p.moves) {
			return
		}
		p.errs[i] = p.runJob(i, sc)
	}
}

// await blocks until it is job i's turn to commit.
func (p *applyPool) await(i int) {
	p.mu.Lock()
	if p.turn != i {
		p.blocked++
		t0 := time.Now()
		for p.turn != i {
			p.cond.Wait()
		}
		p.stallNs += int64(time.Since(t0))
	}
	p.mu.Unlock()
}

// runJob prepares job i, waits for its turn and commits it. Every job
// takes and passes on the turn — after a prepare error, after a panic —
// or its successors would wait forever.
func (p *applyPool) runJob(i int, sc *mem.MigrationScratch) (err error) {
	mv, tr := p.moves[i], p.tr
	defer func() {
		if r := recover(); r != nil {
			err = movePanic(r, i, mv)
		}
		p.await(i) // returns at once when the job already holds the turn
		p.mu.Lock()
		p.turn++
		p.mu.Unlock()
		p.cond.Broadcast()
	}()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	pr, err := p.m.PrepareRegionMigrationScratch(mv.Region, mv.Dest, sc)
	if tr != nil {
		tr.prepareNs.Add(int64(time.Since(t0)))
	}
	p.await(i)
	var mr mem.MigrationResult
	if err == nil {
		if tr != nil {
			t0 = time.Now()
		}
		mr, err = p.m.CommitRegionMigration(pr)
		if tr != nil {
			tr.commitNs.Add(int64(time.Since(t0)))
		}
	}
	return finishMove(i, mr, err, p.results)
}
