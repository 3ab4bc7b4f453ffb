package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/policy"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// runPT is Run with pt push threads in place of the stepper's fixed
// pushThreads, so the tests can drive the engine's thread-count contract
// end to end.
func runPT(cfg Config, pt int) (*Result, error) {
	s, err := NewStepper(cfg)
	if err != nil {
		return nil, err
	}
	s.scratch = make([]mem.MigrationScratch, pt)
	for w := 0; w < cfg.Windows; w++ {
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s.Result(), nil
}

// ptRun executes one standard-mix run (the Fig-7/Fig-10 harness shape:
// Memcached/YCSB on DRAM + NVMM + CT-1 + CT-2) at GOMAXPROCS procs with
// procs push threads. Workload and manager are rebuilt per run so
// every invocation is independent and identically seeded.
func ptRun(t *testing.T, mdl model.Model, procs int) *Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
	res, err := runPT(Config{
		Manager:      standardMix(t, wl),
		Workload:     wl,
		Model:        mdl,
		OpsPerWindow: 4000,
		Windows:      5,
		SampleRate:   20,
	}, procs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestConcurrentPushThreadsDeterminism is the tentpole contract: the full
// Result — every window record, tier-pages slice, latency summary and
// float sum — must be byte-identical across push threads 1, 2 and 8 and
// across repeated runs, even though more than one push thread really
// applies migrations from that many goroutines. Runs under -race in CI
// (the Concurrent suite).
func TestConcurrentPushThreadsDeterminism(t *testing.T) {
	for _, mdl := range []func() model.Model{
		func() model.Model { return &model.Waterfall{Pct: 50} },
		func() model.Model { return &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"} },
	} {
		name := mdl().Name()
		t.Run(name, func(t *testing.T) {
			base := ptRun(t, mdl(), 1)
			if base.Windows[len(base.Windows)-1].Moves == 0 && base.Faults == 0 {
				t.Fatal("run exercised no migrations; determinism test is vacuous")
			}
			for _, procs := range []int{1, 2, 8} {
				got := ptRun(t, mdl(), procs)
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("GOMAXPROCS=%d result differs from GOMAXPROCS=1:\nPT1: %+v\nPT%d: %+v",
						procs, base, procs, got)
				}
			}
		})
	}
}

// TestPushThreadsFixed: a stepper has pushThreads push threads — one
// migration scratch each — whatever GOMAXPROCS it is built or stepped at.
func TestPushThreadsFixed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		s, err := NewStepper(Config{Manager: standardMix(t, wl), Workload: wl, OpsPerWindow: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.scratch) != pushThreads {
			t.Fatalf("GOMAXPROCS=%d: %d push threads, want %d", procs, len(s.scratch), pushThreads)
		}
		runtime.GOMAXPROCS(procs + 4)
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if len(s.scratch) != pushThreads {
			t.Fatalf("built at GOMAXPROCS=%d, stepped at %d: %d push threads, want %d",
				procs, procs+4, len(s.scratch), pushThreads)
		}
	}
}

// rejectingMix is standardMix over content whose every fourth page no
// codec shrinks (corpus.Mixed): every span a plan sends to a compressed
// tier has stores refused at commit and their pages placed back, between
// pages that land.
func rejectingMix(t *testing.T, wl workload.Workload) *mem.Manager {
	t.Helper()
	m, err := mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         corpus.NewGenerator(corpus.Mixed, 99),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// conserved fails t unless every window of res leaves numPages pages
// resident across the tiers.
func conserved(t *testing.T, res *Result, numPages int64) {
	t.Helper()
	for _, w := range res.Windows {
		var resident int64
		for _, n := range w.TierPages {
			resident += n
		}
		if resident != numPages {
			t.Fatalf("window %d: %d pages resident across tiers, want %d", w.Window, resident, numPages)
		}
	}
}

// poolLayout probes what a run's pools hold beyond their counts: it
// faults every third page back in, which frees objects scattered over
// every zspage, and prints the tiers' footprints then and what a
// compaction pass moves. Both follow from which objects share a zspage,
// and so from the order every store of the run landed in.
func poolLayout(t *testing.T, m *mem.Manager) string {
	t.Helper()
	for p := mem.PageID(0); p < mem.PageID(m.NumPages()); p += 3 {
		if _, err := m.Access(p, false); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprint(m.TierFootprintBytes(), m.Compact())
}

// TestConcurrentFallbackConflictDeterminism is the fallback-heavy
// counterpart of the push-thread contract: on content whose every fourth
// page is incompressible, an aggressive demoter's spans interleave pages
// that land with pages refused at commit and placed back, so every span's
// placements and the pools' layouts depend on the order its pages commit
// in. The full Result and the pools' layouts (poolLayout) must still be
// the same across push threads 1, 2 and 8, and every window must conserve
// pages. Runs under -race -count=3 in CI (the Concurrent suite).
func TestConcurrentFallbackConflictDeterminism(t *testing.T) {
	conflictRun := func(procs int) (*Result, int64, string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		m := rejectingMix(t, wl)
		res, err := runPT(Config{
			Manager:      m,
			Workload:     wl,
			Model:        &model.Waterfall{Pct: 75}, // aggressive demotion
			OpsPerWindow: 4000,
			Windows:      5,
			SampleRate:   20,
		}, procs)
		if err != nil {
			t.Fatal(err)
		}
		conserved(t, res, m.NumPages())
		rejects := m.Counters().Rejects
		return res, rejects, poolLayout(t, m)
	}
	base, rejects, baseLayout := conflictRun(1)
	if rejects == 0 {
		t.Fatal("no page was rejected at commit; conflict test is vacuous")
	}
	for _, procs := range []int{2, 8} {
		got, gotRejects, gotLayout := conflictRun(procs)
		if gotRejects != rejects {
			t.Fatalf("GOMAXPROCS=%d: %d rejects vs %d at PT1", procs, gotRejects, rejects)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("GOMAXPROCS=%d result differs from GOMAXPROCS=1 under rejection fallbacks:\nPT1: %+v\nPT%d: %+v",
				procs, base, procs, got)
		}
		if gotLayout != baseLayout {
			t.Fatalf("GOMAXPROCS=%d pool layout %s, GOMAXPROCS=1's %s", procs, gotLayout, baseLayout)
		}
	}
}

// TestConcurrentApplyMovesFallbackConflicts drives applyMoves directly with
// a plan engineered for maximum commit coupling: every region demoted into
// one CT over content whose every fourth page is incompressible (rejection
// fallbacks inside every span), a second wave re-targeting the other CT
// (duplicate regions → chained commits whose sources depend on the first
// wave's outcomes), and promotions back to DRAM. Per-move results,
// residency, counters, pool stats and the pools' layouts (what a
// compaction pass after the plan moves) must match the serial apply at
// every worker count, and residency must account for every page.
func TestConcurrentApplyMovesFallbackConflicts(t *testing.T) {
	collect := func(workers int) ([]mem.MigrationResult, []int64, mem.Counters, []ztier.Stats, mem.CompactStats) {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		m := rejectingMix(t, wl)
		ct1, ct2 := mem.TierID(2), mem.TierID(3)
		var moves []policy.Move
		for r := int64(0); r < m.NumRegions(); r++ {
			moves = append(moves, policy.Move{Region: mem.RegionID(r), Dest: ct1})
		}
		for r := int64(0); r < m.NumRegions(); r += 2 {
			moves = append(moves, policy.Move{Region: mem.RegionID(r), Dest: ct2})
		}
		for r := int64(0); r < m.NumRegions(); r += 3 {
			moves = append(moves, policy.Move{Region: mem.RegionID(r), Dest: mem.DRAMTier})
		}
		results, err := applyMoves(m, moves, make([]mem.MigrationScratch, workers), workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		var resident int64
		for _, n := range m.TierPages() {
			resident += n
		}
		if resident != m.NumPages() {
			t.Fatalf("workers=%d: %d pages resident across tiers, want %d", workers, resident, m.NumPages())
		}
		var pools []ztier.Stats
		for _, ct := range []mem.TierID{ct1, ct2} {
			st, err := m.CompressedTierStats(ct)
			if err != nil {
				t.Fatal(err)
			}
			pools = append(pools, st)
		}
		return results, m.TierPages(), m.Counters(), pools, m.Compact()
	}
	baseRes, basePages, baseCtr, basePools, baseCompact := collect(1)
	if baseCtr.Rejects == 0 {
		t.Fatal("plan rejected no page; conflict test is vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		res, pages, ctr, pools, compact := collect(workers)
		if !reflect.DeepEqual(res, baseRes) {
			t.Fatalf("workers=%d: per-move results differ from serial", workers)
		}
		if !reflect.DeepEqual(pages, basePages) {
			t.Fatalf("workers=%d: residency differs: %v vs %v", workers, pages, basePages)
		}
		if ctr != baseCtr || !reflect.DeepEqual(pools, basePools) {
			t.Fatalf("workers=%d: counters differ: %+v/%+v vs %+v/%+v",
				workers, ctr, pools, baseCtr, basePools)
		}
		if compact != baseCompact {
			t.Fatalf("workers=%d: pool layouts differ: compaction %+v vs %+v", workers, compact, baseCompact)
		}
	}
}

// TestConcurrentApplyMovesRepeatable hammers the worker pool directly:
// the same plan applied at different worker counts on identically-built
// managers yields identical per-move results in plan order.
func TestConcurrentApplyMovesRepeatable(t *testing.T) {
	for _, in := range []struct {
		name  string
		build func() *mem.Manager
		plan  func(m *mem.Manager) []policy.Move
	}{
		// A synthetic plan: demote alternating regions into the two
		// compressed tiers, promote a third of them back — enough traffic
		// to cover the generic, same-codec and skip paths.
		{"standard-mix", func() *mem.Manager {
			return standardMix(t, workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1))
		}, func(m *mem.Manager) []policy.Move {
			tiers := m.Tiers()
			var moves []policy.Move
			for r := int64(0); r < m.NumRegions(); r++ {
				moves = append(moves, policy.Move{Region: mem.RegionID(r), Dest: tiers[2+r%2].ID})
			}
			for r := int64(0); r < m.NumRegions(); r += 3 {
				moves = append(moves, policy.Move{Region: mem.RegionID(r), Dest: mem.DRAMTier})
			}
			return moves
		}},
		// More tiers than a machine word has bits, a destination past tier
		// 63 and a duplicate region: an ordinary manager, an ordinary plan.
		{"65-tiers", func() *mem.Manager {
			cts := make([]ztier.Config, 63) // 2 BA + 63 CTs
			for i := range cts {
				cts[i] = ztier.CT1()
			}
			m, err := mem.NewManager(mem.Config{
				NumPages:        4 * mem.RegionPages,
				Content:         corpus.NewGenerator(corpus.Dickens, 7),
				ByteTiers:       []media.Kind{media.NVMM},
				CompressedTiers: cts,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, func(*mem.Manager) []policy.Move {
			return []policy.Move{
				{Region: 0, Dest: mem.TierID(2)},
				{Region: 1, Dest: mem.TierID(64)},
				{Region: 0, Dest: mem.TierID(3)},
			}
		}},
	} {
		t.Run(in.name, func(t *testing.T) {
			collect := func(workers int) ([]mem.MigrationResult, []int64) {
				m := in.build()
				results, err := applyMoves(m, in.plan(m), make([]mem.MigrationScratch, workers), workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				return results, m.TierPages()
			}
			baseRes, basePages := collect(1)
			for _, workers := range []int{2, 4, 8} {
				res, pages := collect(workers)
				if !reflect.DeepEqual(res, baseRes) {
					t.Fatalf("workers=%d: per-move results differ from serial", workers)
				}
				if !reflect.DeepEqual(pages, basePages) {
					t.Fatalf("workers=%d: tier residency differs from serial: %v vs %v",
						workers, pages, basePages)
				}
			}
		})
	}
}

// TestConcurrentApplyMovesPrepareError: a move with an invalid destination
// must surface its error deterministically while the rest of the plan
// completes, at any worker count.
func TestConcurrentApplyMovesPrepareError(t *testing.T) {
	for _, workers := range []int{2, 8} {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 4*mem.RegionPages, 1)
		m := standardMix(t, wl)
		moves := []policy.Move{
			{Region: 0, Dest: mem.TierID(2)},
			{Region: 1, Dest: mem.TierID(99)}, // no such tier
			{Region: 2, Dest: mem.TierID(3)},
		}
		_, err := applyMoves(m, moves, make([]mem.MigrationScratch, workers), workers, nil)
		if !errors.Is(err, mem.ErrNoSuchTier) {
			t.Fatalf("workers=%d: err = %v, want ErrNoSuchTier", workers, err)
		}
	}
}

// pagedSource is a content source double: the wrapped source, except that
// filling page panicPage panics (-1 = never) and filling any page below
// slowBelow first sleeps.
type pagedSource struct {
	corpus.Source
	panicPage int64
	slowBelow uint64
	sleep     time.Duration
}

func (p *pagedSource) Fill(pageIdx uint64, buf []byte) {
	if int64(pageIdx) == p.panicPage {
		panic("pagedSource: boom")
	}
	if pageIdx < p.slowBelow {
		time.Sleep(p.sleep)
	}
	p.Source.Fill(pageIdx, buf)
}

// pagedManager is the standard mix over 8 regions of src's content.
func pagedManager(t *testing.T, src *pagedSource) *mem.Manager {
	t.Helper()
	src.Source = corpus.NewGenerator(corpus.Dickens, 99)
	m, err := mem.NewManager(mem.Config{
		NumPages:        8 * mem.RegionPages,
		Content:         src,
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// demoteAll is one move per region of m, alternating CT-1 and CT-2.
func demoteAll(m *mem.Manager) []policy.Move {
	var moves []policy.Move
	for r := int64(0); r < m.NumRegions(); r++ {
		moves = append(moves, policy.Move{Region: mem.RegionID(r), Dest: mem.TierID(2 + r%2)})
	}
	return moves
}

// TestConcurrentApplyMovesPanic: a panic on a push thread — here the
// content source, while move 3 is prepared — ends the apply with that
// move's error instead of ending the process. The error names the move,
// its region and destination and carries the panic value and stack; it is
// the same at PT 1, 2 and 8 (the stacks differ: compare the first line);
// and applyMoves returns with every worker gone, because the panicking job
// still passed the turn on.
func TestConcurrentApplyMovesPanic(t *testing.T) {
	const badRegion = 3
	var first string
	for _, workers := range []int{1, 2, 8} {
		m := pagedManager(t, &pagedSource{panicPage: badRegion*mem.RegionPages + 17})
		before := runtime.NumGoroutine()
		_, err := applyMoves(m, demoteAll(m), make([]mem.MigrationScratch, workers), workers, nil)
		if err == nil {
			t.Fatalf("workers=%d: applyMoves swallowed the panic", workers)
		}
		for _, sub := range []string{"push thread panicked on move 3 (region 3 to tier 3)", "pagedSource: boom", "pagedSource).Fill"} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("workers=%d: error %q does not mention %q", workers, err, sub)
			}
		}
		line, _, _ := strings.Cut(err.Error(), "\n")
		if first == "" {
			first = line
		} else if line != first {
			t.Errorf("workers=%d: error %q, want the serial apply's %q", workers, line, first)
		}
		// Every worker has passed wg.Done; give the last ones a moment to
		// finish exiting before counting them as left behind.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers=%d: %d goroutines before the apply, %d after it returned", workers, before, after)
		}
		// The moves ahead of the panic landed; the region lock it held is
		// free again.
		if got := m.RegionResidency(0)[2]; got != mem.RegionPages {
			t.Errorf("workers=%d: move 0 left %d pages in CT-1, want %d", workers, got, mem.RegionPages)
		}
		if _, err := m.MigrateRegion(badRegion, mem.DRAMTier); err != nil {
			t.Errorf("workers=%d: region %d unusable after the panic: %v", workers, badRegion, err)
		}
	}
}

// TestConcurrentApplyMovesSlowRegion: the first span of region 0 takes
// far longer to prepare than any other, so it holds the turn while the
// other workers prepare the spans behind it, run into the look-ahead
// bound and wait for the turn to move. Outcomes and the traced event
// stream equal the serial apply's, every span is counted as a job, and
// the waits are counted: the stall accounting the ledger reads is live.
func TestConcurrentApplyMovesSlowRegion(t *testing.T) {
	collect := func(workers int) ([]mem.MigrationResult, []obs.MoveEvent, obs.SchedulerStats) {
		m := pagedManager(t, &pagedSource{panicPage: -1, slowBelow: mem.SpanPages, sleep: 200 * time.Microsecond})
		tr := &applyTrace{}
		moves := demoteAll(m)
		results, err := applyMoves(m, moves, make([]mem.MigrationScratch, workers), workers, tr)
		if err != nil {
			t.Fatal(err)
		}
		return results, moveEvents(1, moves, results), tr.sched
	}
	baseRes, baseEvents, _ := collect(1)
	res, events, sched := collect(8)
	if !reflect.DeepEqual(res, baseRes) {
		t.Fatal("PT 8 outcomes differ from the serial apply's")
	}
	if !reflect.DeepEqual(events, baseEvents) {
		t.Fatal("PT 8 traced event stream differs from the serial apply's")
	}
	spans := len(baseRes) * mem.RegionPages / mem.SpanPages
	if sched.Jobs != spans || sched.BlockedAwaits < 1 || sched.StallNs <= 0 {
		t.Fatalf("scheduler stats %+v over %d spans: want every span counted and at least one measured wait", sched, spans)
	}
}

// TestApplyOneWorkerTraced: a one-move plan at PT 1 runs on the caller's
// goroutine, and at PT 2 its spans are shared by two workers; traced or
// not, the outcomes are the same, the traced apply measures its prepare
// and commit instead of leaving them zero, and the move's spans are its
// jobs, none of them waiting.
func TestApplyOneWorkerTraced(t *testing.T) {
	for _, workers := range []int{1, 2} {
		apply := func(tr *applyTrace) []mem.MigrationResult {
			m := pagedManager(t, &pagedSource{panicPage: -1})
			moves := []policy.Move{{Region: 2, Dest: mem.TierID(3)}}
			out, err := applyMoves(m, moves, make([]mem.MigrationScratch, workers), workers, tr)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		untraced := apply(nil)
		tr := &applyTrace{}
		traced := apply(tr)
		if untraced[0].Moved != mem.RegionPages {
			t.Fatalf("workers=%d: moved %d pages, want the whole region", workers, untraced[0].Moved)
		}
		if !reflect.DeepEqual(traced, untraced) {
			t.Fatalf("workers=%d: traced outcome %+v != untraced %+v", workers, traced, untraced)
		}
		if tr.prepareNs.Load() <= 0 || tr.commitNs.Load() <= 0 {
			t.Errorf("workers=%d: traced split prepare %d ns, commit %d ns; want both measured",
				workers, tr.prepareNs.Load(), tr.commitNs.Load())
		}
		if want := (obs.SchedulerStats{Jobs: mem.RegionPages / mem.SpanPages}); tr.sched != want {
			t.Errorf("workers=%d: scheduler stats %+v, want %+v: the region's spans and no waits", workers, tr.sched, want)
		}
	}
}
