// Observability determinism suite: recording must never perturb results,
// the event stream must be byte-identical at every push-thread count, and
// the disabled (nil-Recorder) paths must stay allocation-free.
package sim

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"

	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/policy"
	"tierscape/internal/telemetry"
	"tierscape/internal/workload"
)

// obsRun is ptRun with a recording Recorder attached: an in-memory capture
// plus a JSONL stream, teed.
func obsRun(t *testing.T, mdl model.Model, procs int) (*Result, *obs.Mem, []byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
	var capture obs.Mem
	var buf bytes.Buffer
	stream := obs.NewStream(&buf)
	res, err := runPT(Config{
		Manager:      standardMix(t, wl),
		Workload:     wl,
		Model:        mdl,
		OpsPerWindow: 4000,
		Windows:      5,
		SampleRate:   20,
		Recorder:     obs.Tee(&capture, stream),
	}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	return res, &capture, buf.Bytes()
}

// TestConcurrentObsStreamDeterminism extends the push-thread determinism
// contract to the observability layer: for both model families, the full
// JSONL event stream and every captured snapshot/move must be
// byte-identical at push threads 1, 2 and 8, and attaching a Recorder must
// not change the Result at all. Runs under -race in CI (the Concurrent
// suite).
func TestConcurrentObsStreamDeterminism(t *testing.T) {
	for _, mdl := range []func() model.Model{
		func() model.Model { return &model.Waterfall{Pct: 50} },
		func() model.Model { return &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"} },
	} {
		name := mdl().Name()
		t.Run(name, func(t *testing.T) {
			bare := ptRun(t, mdl(), 1) // no recorder at all
			baseRes, baseCap, baseStream := obsRun(t, mdl(), 1)
			if !reflect.DeepEqual(baseRes, bare) {
				t.Fatal("attaching a Recorder changed the Result")
			}
			if len(baseCap.Moves) == 0 {
				t.Fatal("run recorded no move events; stream determinism test is vacuous")
			}
			if len(baseCap.Windows) != len(baseRes.Windows) ||
				len(baseCap.Runtimes) != len(baseRes.Windows) {
				t.Fatalf("captured %d windows / %d runtimes, want %d of each",
					len(baseCap.Windows), len(baseCap.Runtimes), len(baseRes.Windows))
			}
			if !reflect.DeepEqual(baseCap.Windows, baseRes.Windows) {
				t.Fatal("RecordWindow snapshots differ from Result.Windows")
			}
			for _, procs := range []int{2, 8} {
				res, cap, stream := obsRun(t, mdl(), procs)
				if !reflect.DeepEqual(res, baseRes) {
					t.Fatalf("GOMAXPROCS=%d Result differs from GOMAXPROCS=1", procs)
				}
				if !reflect.DeepEqual(cap.Windows, baseCap.Windows) {
					t.Fatalf("GOMAXPROCS=%d window snapshots differ", procs)
				}
				if !reflect.DeepEqual(cap.Moves, baseCap.Moves) {
					t.Fatalf("GOMAXPROCS=%d move events differ", procs)
				}
				if !bytes.Equal(stream, baseStream) {
					t.Fatalf("GOMAXPROCS=%d JSONL stream is not byte-identical", procs)
				}
			}
		})
	}
}

// coldAM solves every window with a copy of a zero-state Analytical: the
// fresh model a persistent one must match.
type coldAM struct{ zero model.Analytical }

func (c coldAM) Name() string { return c.zero.Name() }

func (c coldAM) Recommend(m *mem.Manager, prof telemetry.Profile) model.Recommendation {
	a := c.zero
	return a.Recommend(m, prof)
}

// TestConcurrentWarmObsStreamDeterminism extends the determinism contract
// to the analytical model's reused buffers: a persistent model's runs must
// be byte-identical across push threads, and its window snapshots and move
// streams deep-equal to those of a model that starts fresh every window.
// Runs under -race in CI (the Concurrent suite).
func TestConcurrentWarmObsStreamDeterminism(t *testing.T) {
	persistent := func() model.Model {
		return &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"}
	}

	baseRes, baseCap, baseStream := obsRun(t, persistent(), 1)

	for _, procs := range []int{2, 8} {
		res, cp, stream := obsRun(t, persistent(), procs)
		if !reflect.DeepEqual(res, baseRes) {
			t.Fatalf("GOMAXPROCS=%d Result differs from GOMAXPROCS=1", procs)
		}
		if !reflect.DeepEqual(cp.Moves, baseCap.Moves) {
			t.Fatalf("GOMAXPROCS=%d move events differ", procs)
		}
		if !bytes.Equal(stream, baseStream) {
			t.Fatalf("GOMAXPROCS=%d JSONL stream is not byte-identical", procs)
		}
	}

	coldRes, coldCap, _ := obsRun(t, coldAM{zero: model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"}}, 1)
	if !reflect.DeepEqual(baseRes.Windows, coldRes.Windows) {
		t.Fatal("persistent model's windows differ from a fresh model's")
	}
	if !reflect.DeepEqual(baseCap.Moves, coldCap.Moves) {
		t.Fatal("persistent model's move events differ from a fresh model's")
	}
	if baseRes.FinalTCO != coldRes.FinalTCO || baseRes.AppNs != coldRes.AppNs {
		t.Fatalf("persistent aggregates differ from a fresh model's: TCO %v vs %v, AppNs %v vs %v",
			baseRes.FinalTCO, coldRes.FinalTCO, baseRes.AppNs, coldRes.AppNs)
	}
}

// TestObsMoveEventOrder: the stream delivers each window's moves in
// ascending job order, between window boundaries.
func TestObsMoveEventOrder(t *testing.T) {
	_, cap, _ := obsRun(t, &model.Waterfall{Pct: 50}, 8)
	lastWindow, lastJob := 0, -1
	for _, ev := range cap.Moves {
		if ev.Window < lastWindow {
			t.Fatalf("move event window went backwards: %d after %d", ev.Window, lastWindow)
		}
		if ev.Window > lastWindow {
			lastWindow, lastJob = ev.Window, -1
		}
		if ev.Job <= lastJob {
			t.Fatalf("window %d: job %d arrived after job %d; events must be job-ascending",
				ev.Window, ev.Job, lastJob)
		}
		lastJob = ev.Job
	}
}

// TestObsWindowSnapshotFields sanity-checks the snapshot schema against
// its own accounting identities on a migration-heavy run.
func TestObsWindowSnapshotFields(t *testing.T) {
	res, cap, _ := obsRun(t, &model.Waterfall{Pct: 50}, 2)
	numTiers := 4 // standardMix: DRAM + NVMM + CT-1 + CT-2
	sawMigration := false
	moveTotals := make(map[int]int) // window → sum of event Moved
	for _, ev := range cap.Moves {
		moveTotals[ev.Window] += ev.Moved
	}
	for _, w := range res.Windows {
		if len(w.TierPages) != numTiers || len(w.TierBytes) != numTiers ||
			len(w.TierRatio) != numTiers || len(w.TierFrag) != numTiers {
			t.Fatalf("window %d: tier slices have lengths %d/%d/%d/%d, want %d",
				w.Window, len(w.TierPages), len(w.TierBytes), len(w.TierRatio), len(w.TierFrag), numTiers)
		}
		sum := w.SolverNs + w.MigrateNs + w.CompactNs + w.ProfileNs + w.PrefetchNs
		if diff := math.Abs(w.DaemonNs - sum); diff > 1e-6*(1+math.Abs(w.DaemonNs)) {
			t.Fatalf("window %d: DaemonNs %v != component sum %v", w.Window, w.DaemonNs, sum)
		}
		var flowPages int64
		for _, f := range w.Migrations {
			if f.From < 0 || f.From >= numTiers || f.To < 0 || f.To >= numTiers {
				t.Fatalf("window %d: flow %+v has out-of-range tier", w.Window, f)
			}
			flowPages += f.Pages
		}
		if flowPages != int64(w.Moves) {
			t.Fatalf("window %d: migration matrix sums to %d pages, Moves says %d",
				w.Window, flowPages, w.Moves)
		}
		if moveTotals[w.Window] != w.Moves {
			t.Fatalf("window %d: move events sum to %d pages, snapshot says %d",
				w.Window, moveTotals[w.Window], w.Moves)
		}
		if w.Moves > 0 {
			sawMigration = true
		}
		for tier := 2; tier < numTiers; tier++ { // compressed tiers
			if w.TierPages[tier] > 0 {
				if w.TierRatio[tier] <= 0 {
					t.Fatalf("window %d: CT %d holds %d pages but ratio is %v",
						w.Window, tier, w.TierPages[tier], w.TierRatio[tier])
				}
				if w.TierFrag[tier] < 0 || w.TierFrag[tier] >= 1 {
					t.Fatalf("window %d: CT %d fragmentation %v out of [0,1)",
						w.Window, tier, w.TierFrag[tier])
				}
			}
		}
	}
	if !sawMigration {
		t.Fatal("no window migrated anything; snapshot test is vacuous")
	}
	// Result aggregate helpers must agree with the windows they summarize.
	var wantMoves int
	var wantSolver float64
	for _, w := range res.Windows {
		wantMoves += w.Moves
		wantSolver += w.SolverNs
	}
	if res.TotalMoves() != wantMoves || res.TotalSolverNs() != wantSolver {
		t.Fatalf("aggregate helpers disagree: TotalMoves %d want %d, TotalSolverNs %v want %v",
			res.TotalMoves(), wantMoves, res.TotalSolverNs(), wantSolver)
	}
}

// TestObsRuntimeTrace: the wall-clock side must cover every window, carry
// plausible (non-negative) spans, and report scheduler activity on
// parallel applies — without ever entering the deterministic stream
// (guaranteed by type: WindowRuntime has no JSONL encoding path).
func TestObsRuntimeTrace(t *testing.T) {
	_, cap, _ := obsRun(t, &model.Waterfall{Pct: 50}, 8)
	if len(cap.Runtimes) == 0 {
		t.Fatal("no runtime records captured")
	}
	for i, rt := range cap.Runtimes {
		if rt.Window != i+1 {
			t.Fatalf("runtime %d has window %d", i, rt.Window)
		}
		for p, ns := range rt.PhaseWallNs {
			if ns < 0 {
				t.Fatalf("window %d: phase %s has negative wall time", rt.Window, obs.Phase(p))
			}
		}
		if rt.PrepareWallNs < 0 || rt.CommitWallNs < 0 || rt.Sched.StallNs < 0 {
			t.Fatalf("window %d: negative apply split/stall", rt.Window)
		}
		// A worker waits only with no span in hand, and each wait ends in
		// a claim or in the worker's exit; the first lookAhead spans need
		// no wait, so with no more workers than that the waits never
		// outnumber the spans.
		if rt.Sched.BlockedAwaits < 0 || rt.Sched.BlockedAwaits > rt.Sched.Jobs {
			t.Fatalf("window %d: %d blocked awaits over %d spans; a span is waited for at most once",
				rt.Window, rt.Sched.BlockedAwaits, rt.Sched.Jobs)
		}
	}
}

// BenchmarkRecorderOffCommit guards the commit path with observability
// disabled: one region's span commits per iteration, as the apply lands
// them (the prepares excluded via StopTimer, which also pauses allocation
// accounting), ping-ponging a region between the byte-addressable tiers.
// Must report 0 allocs/op — the nil-trace apply path may not add a single
// allocation to commits.
func BenchmarkRecorderOffCommit(b *testing.B) {
	m := benchManager(b, 1, false)
	dests := [2]mem.TierID{mem.TierID(1), mem.DRAMTier} // NVMM, then back
	sc := &mem.MigrationScratch{}
	prs := make([]*mem.PreparedRegion, mem.RegionPages/mem.SpanPages)
	round := func(dest mem.TierID) {
		b.StopTimer()
		for j := range prs {
			var err error
			if prs[j], err = m.PrepareSpanMigration(0, j, dest, sc); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		var total mem.MigrationResult
		for _, pr := range prs {
			if err := m.CommitMigrationInto(pr, sc, &total); err != nil {
				b.Fatal(err)
			}
		}
	}
	round(mem.DRAMTier) // a no-op move that leaves every span on the scratch's free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(dests[i%2])
	}
}

// fallbackObsRun is obsRun on a fallback-heavy manager (every fourth page
// incompressible): demotions reject at commit time, so the event stream
// carries rejected moves — the outcomes whose serial/pooled recording
// paths historically diverged easiest.
func fallbackObsRun(t *testing.T, procs int) (*Result, *obs.Mem, []byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
	m := rejectingMix(t, wl)
	var capture obs.Mem
	var buf bytes.Buffer
	stream := obs.NewStream(&buf)
	res, err := runPT(Config{
		Manager:      m,
		Workload:     wl,
		Model:        &model.Waterfall{Pct: 75},
		OpsPerWindow: 4000,
		Windows:      5,
		SampleRate:   20,
		Recorder:     obs.Tee(&capture, stream),
	}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	conserved(t, res, m.NumPages())
	return res, &capture, buf.Bytes()
}

// moveEvents reads a window's events off its job-indexed results, the way
// StepControl does.
func moveEvents(window int, moves []policy.Move, applied []mem.MigrationResult) []obs.MoveEvent {
	evs := make([]obs.MoveEvent, len(moves))
	for i, mv := range moves {
		evs[i] = moveEvent(window, i, mv, applied[i])
	}
	return evs
}

// TestConcurrentObsStreamFallback: a window's events are read off the
// move-indexed results, which every worker count fills through the same
// span commits — exercised here with rejected (fallback) moves in the
// stream.
// The full JSONL byte stream and every captured move are identical at
// push threads 1, 2 and 8. Runs under -race in CI (the Concurrent suite).
func TestConcurrentObsStreamFallback(t *testing.T) {
	baseRes, baseCap, baseStream := fallbackObsRun(t, 1)
	rejected := 0
	for _, ev := range baseCap.Moves {
		rejected += ev.Rejected
	}
	if rejected == 0 {
		t.Fatal("no rejected pages in the move stream; fallback pin is vacuous")
	}
	for _, procs := range []int{2, 8} {
		res, cap, stream := fallbackObsRun(t, procs)
		if !reflect.DeepEqual(res, baseRes) {
			t.Fatalf("GOMAXPROCS=%d Result differs from serial", procs)
		}
		if !reflect.DeepEqual(cap.Moves, baseCap.Moves) {
			t.Fatalf("GOMAXPROCS=%d move events differ", procs)
		}
		if !bytes.Equal(stream, baseStream) {
			t.Fatalf("GOMAXPROCS=%d JSONL stream is not byte-identical", procs)
		}
	}
}
