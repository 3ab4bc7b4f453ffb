// Tests for the observability v2 accounting (pressure.go): latency
// histograms, PSI-style pressure, and the thrash/storm detectors. The
// snapshot fields are part of the deterministic channel, so they must be
// identical at every push-thread count, and the per-access observe path
// must stay allocation-free.
package sim

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/policy"
	"tierscape/internal/stats"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// TestLatencyBucketMirror pins the obs-side mirror of the histogram
// geometry: obs is a leaf package and cannot import stats, so it
// declares its own NumLatencyBuckets. The two constants must not drift.
func TestLatencyBucketMirror(t *testing.T) {
	if obs.NumLatencyBuckets != stats.NumLogBuckets {
		t.Fatalf("obs.NumLatencyBuckets = %d but stats.NumLogBuckets = %d; the mirrored constant drifted",
			obs.NumLatencyBuckets, stats.NumLogBuckets)
	}
}

// TestConcurrentPressureObsDeterminism asserts the v2 snapshot fields —
// latency summaries, pressure accounting, thrash/storm gauges — are
// identical at push threads 1, 2 and 8, and that the base run actually
// exercises them (non-vacuity). The stream byte-identity test covers
// these fields too; this one isolates them for a readable failure.
func TestConcurrentPressureObsDeterminism(t *testing.T) {
	mdl := func() model.Model { return &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"} }
	base, _, _ := obsRun(t, mdl(), 1)

	var latCount, tierLatCount int64
	var stallWins, pressureWins, migWins int
	for _, w := range base.Windows {
		latCount += w.Latency.Count
		for tier, ls := range w.TierLatency {
			tierLatCount += ls.Count
			var inBuckets int64
			for _, b := range ls.Buckets {
				if b.B < 0 || b.B >= obs.NumLatencyBuckets || b.N <= 0 {
					t.Fatalf("window %d tier %d: bad bucket %+v", w.Window, tier, b)
				}
				inBuckets += b.N
			}
			if inBuckets != ls.Count {
				t.Fatalf("window %d tier %d: buckets sum to %d, Count = %d",
					w.Window, tier, inBuckets, ls.Count)
			}
		}
		if w.FaultStallNs > 0 {
			stallWins++
			if len(w.TierStallNs) == 0 {
				t.Fatalf("window %d: FaultStallNs %.0f but no TierStallNs breakdown",
					w.Window, w.FaultStallNs)
			}
			var sum float64
			for _, ns := range w.TierStallNs {
				sum += ns
			}
			if math.Abs(sum-w.FaultStallNs) > 1e-6*w.FaultStallNs {
				t.Fatalf("window %d: TierStallNs sums to %.0f, FaultStallNs = %.0f",
					w.Window, sum, w.FaultStallNs)
			}
		}
		if w.Pressure > 0 {
			pressureWins++
			want := (w.FaultStallNs + w.InterferenceNs) / w.AppNs
			if math.Abs(w.Pressure-want) > 1e-12 {
				t.Fatalf("window %d: Pressure = %v, want (stall+interference)/app = %v",
					w.Window, w.Pressure, want)
			}
		}
		if wantBytes := int64(w.Moves+w.Rejected) * mem.PageSize; w.MigratedBytes != wantBytes {
			t.Fatalf("window %d: MigratedBytes = %d, want %d", w.Window, w.MigratedBytes, wantBytes)
		}
		if w.MigratedBytes > 0 {
			migWins++
			if w.StormBytesPerSec <= 0 {
				t.Fatalf("window %d: migrated %d bytes but storm gauge is %v",
					w.Window, w.MigratedBytes, w.StormBytesPerSec)
			}
		}
	}
	if latCount == 0 || tierLatCount == 0 {
		t.Fatal("no latency observations recorded; determinism test is vacuous")
	}
	if latCount != tierLatCount {
		t.Fatalf("aggregate latency count %d != per-tier total %d", latCount, tierLatCount)
	}
	if stallWins == 0 || pressureWins == 0 || migWins == 0 {
		t.Fatalf("vacuous run: %d windows with fault stall, %d with pressure, %d with migration",
			stallWins, pressureWins, migWins)
	}

	for _, procs := range []int{2, 8} {
		res, _, _ := obsRun(t, mdl(), procs)
		for i, w := range res.Windows {
			b := base.Windows[i]
			for _, f := range []struct {
				name     string
				got, ref any
			}{
				{"Latency", w.Latency, b.Latency},
				{"TierLatency", w.TierLatency, b.TierLatency},
				{"FaultStallNs", w.FaultStallNs, b.FaultStallNs},
				{"InterferenceNs", w.InterferenceNs, b.InterferenceNs},
				{"Pressure", w.Pressure, b.Pressure},
				{"TierStallNs", w.TierStallNs, b.TierStallNs},
				{"PingPongMoves", w.PingPongMoves, b.PingPongMoves},
				{"ThrashRegions", w.ThrashRegions, b.ThrashRegions},
				{"ThrashScore", w.ThrashScore, b.ThrashScore},
				{"MigratedBytes", w.MigratedBytes, b.MigratedBytes},
				{"StormBytesPerSec", w.StormBytesPerSec, b.StormBytesPerSec},
			} {
				if !reflect.DeepEqual(f.got, f.ref) {
					t.Errorf("GOMAXPROCS=%d window %d: %s = %v, want %v (GOMAXPROCS=1)",
						procs, w.Window, f.name, f.got, f.ref)
				}
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// obsStepper builds a bare Stepper with just the pressure.go accumulators
// wired, for unit-testing the detector state machine in isolation: one
// tier per hit latency given, 0 for a compressed tier, as NewStepper takes
// them from the manager.
func obsStepper(hitNs ...float64) *Stepper {
	s := &Stepper{
		tiers:   make([]tierObs, len(hitNs)),
		lastDir: make(map[mem.RegionID]int8),
		thrash:  make(map[mem.RegionID]int64),
	}
	for t, ns := range hitNs {
		s.tiers[t].hitNs = ns
	}
	return s
}

// TestThrashDetector drives the fixed-point ping-pong scoring through a
// flip sequence: no flip on first sight, one ping-pong per direction
// reversal, threshold reached after flips in two consecutive windows,
// decay to deletion afterwards. Zero-page and same-tier moves are inert.
func TestThrashDetector(t *testing.T) {
	s := obsStepper(33, 350, 0, 0)
	const r = mem.RegionID(7)
	mk := func(from, dest mem.TierID, moved int) ([]policy.Move, []mem.MigrationResult) {
		return []policy.Move{{Region: r, From: from, Dest: dest}},
			[]mem.MigrationResult{{Moved: moved}}
	}

	// Window 1: first demotion — direction recorded, no flip.
	var rec WindowRecord
	s.decayThrash()
	moves, applied := mk(0, 2, 8)
	s.noteMoves(&rec, moves, applied)
	if rec.PingPongMoves != 0 || len(s.thrash) != 0 {
		t.Fatalf("first move: pingpong %d, thrash %v; want none", rec.PingPongMoves, s.thrash)
	}

	// A rejected move (Moved == 0) must not touch direction state.
	moves, applied = mk(2, 0, 0)
	s.noteMoves(&rec, moves, applied)
	if rec.PingPongMoves != 0 || s.lastDir[r] != -1 {
		t.Fatalf("zero-page move changed state: pingpong %d, dir %d", rec.PingPongMoves, s.lastDir[r])
	}

	// Window 2: promotion — one flip, score = thrashFlip (1.0).
	s.decayThrash()
	moves, applied = mk(2, 0, 8)
	s.noteMoves(&rec, moves, applied)
	if rec.PingPongMoves != 1 || s.thrash[r] != thrashFlip {
		t.Fatalf("after flip: pingpong %d, score %d; want 1, %d", rec.PingPongMoves, s.thrash[r], thrashFlip)
	}

	// Window 3: demotion again — second consecutive flip; the decayed
	// score (0.5) plus the new flip crosses the 1.5 threshold exactly.
	s.decayThrash()
	moves, applied = mk(0, 2, 8)
	s.noteMoves(&rec, moves, applied)
	if want := int64(thrashFlip/2 + thrashFlip); s.thrash[r] != want {
		t.Fatalf("after second flip: score %d, want %d", s.thrash[r], want)
	}
	win := WindowRecord{AppNs: 1e9}
	s.fillWindowObs(&win, 0)
	if win.ThrashRegions != 1 || win.ThrashScore != 1.5 {
		t.Fatalf("thrash gauges = %d regions, score %v; want 1, 1.5", win.ThrashRegions, win.ThrashScore)
	}

	// No more flips: the score halves each window and the entry is
	// dropped once it falls below the floor (1/16).
	for i := 0; i < 5; i++ {
		s.decayThrash()
	}
	if len(s.thrash) != 0 {
		t.Fatalf("score did not decay to deletion: %v", s.thrash)
	}
	win = WindowRecord{AppNs: 1e9}
	s.fillWindowObs(&win, 0)
	if win.ThrashRegions != 0 || win.ThrashScore != 0 {
		t.Fatalf("gauges after decay = %d regions, score %v; want zeros", win.ThrashRegions, win.ThrashScore)
	}
}

// TestPressureAccounting drives observeAccess + fillWindowObs by hand and
// checks the PSI arithmetic: stall is fault latency attributed to the
// serving tier, pressure is (stall + interference) / app time, and the
// accumulators reset between windows.
func TestPressureAccounting(t *testing.T) {
	s := obsStepper(100, 350, 0)
	s.observeAccess(mem.AccessResult{Tier: 0, LatencyNs: 100})
	s.observeAccess(mem.AccessResult{Tier: 2, LatencyNs: 3000, Fault: true})
	s.observeAccess(mem.AccessResult{Tier: 2, LatencyNs: 5000, Fault: true})

	rec := WindowRecord{AppNs: 1e6, Moves: 3, Rejected: 1}
	s.fillWindowObs(&rec, 2000)

	if rec.FaultStallNs != 8000 {
		t.Fatalf("FaultStallNs = %v, want 8000", rec.FaultStallNs)
	}
	if want := []float64{0, 0, 8000}; !reflect.DeepEqual(rec.TierStallNs, want) {
		t.Fatalf("TierStallNs = %v, want %v", rec.TierStallNs, want)
	}
	if want := (8000.0 + 2000.0) / 1e6; rec.Pressure != want {
		t.Fatalf("Pressure = %v, want %v", rec.Pressure, want)
	}
	if rec.Latency.Count != 3 || rec.Latency.SumNs != 8100 {
		t.Fatalf("aggregate latency = %+v, want count 3 sum 8100", rec.Latency)
	}
	if rec.TierLatency[1].Count != 0 || rec.TierLatency[2].Count != 2 {
		t.Fatalf("per-tier latency = %+v", rec.TierLatency)
	}
	// Quantiles are quantized to log2 bucket upper bounds: 5000 ns falls
	// in (4096, 8192].
	if rec.TierLatency[2].P99Ns != 8192 {
		t.Fatalf("tier 2 p99 = %v, want 8192", rec.TierLatency[2].P99Ns)
	}
	if rec.MigratedBytes != 4*mem.PageSize {
		t.Fatalf("MigratedBytes = %d, want %d", rec.MigratedBytes, 4*mem.PageSize)
	}
	if want := float64(4*mem.PageSize) / (1e6 / 1e9); rec.StormBytesPerSec != want {
		t.Fatalf("StormBytesPerSec = %v, want %v", rec.StormBytesPerSec, want)
	}

	// fillWindowObs must reset the accumulators for the next window.
	next := WindowRecord{AppNs: 1e6}
	s.fillWindowObs(&next, 0)
	if next.Latency.Count != 0 || next.FaultStallNs != 0 || next.Pressure != 0 {
		t.Fatalf("accumulators leaked into the next window: %+v", next)
	}
}

// BenchmarkRecorderOffObserve pins the per-access observe path in its two
// cases, with no allocation and no clock reads: a hit on a
// byte-addressable tier bumps a counter, and a fault bumps a histogram and
// adds to a stall sum. The name keeps both inside CI's Recorder bench
// regex.
func BenchmarkRecorderOffObserve(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		s := obsStepper(33, 350, 0, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := mem.TierID(i & 1)
			s.observeAccess(mem.AccessResult{Tier: t, LatencyNs: s.tiers[t].hitNs})
		}
	})
	b.Run("fault", func(b *testing.B) {
		s := obsStepper(33, 350, 0, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.observeAccess(mem.AccessResult{Tier: 2, LatencyNs: 1234.5, Fault: true})
		}
	})
}

// TestBulkHitCountingIdentical: counting byte-addressable hits and
// histogramming them once a window leaves the event stream byte-identical
// to histogramming every access as it happens. The memory holds regions on
// DRAM, NVMM, CXL and two compressed tiers, so every window has hits on
// the three byte tiers and faults on the compressed ones. The run is a
// baseline, so nothing but the accesses moves a page, and a replica
// manager fed the same access stream sees every access's result. The
// reference stepper's accumulators are replaced, window by window, by the
// replica's access-by-access histograms before it closes the window.
func TestBulkHitCountingIdentical(t *testing.T) {
	const windows, ops = 3, 4000
	build := func() (workload.Workload, *mem.Manager) {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 10*mem.RegionPages, 1)
		m, err := mem.NewManager(mem.Config{
			NumPages:        wl.NumPages(),
			Content:         corpus.NewGenerator(wl.Content(), 99),
			ByteTiers:       []media.Kind{media.NVMM, media.CXL},
			CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
		})
		if err != nil {
			t.Fatal(err)
		}
		tiers := mem.TierID(len(m.Tiers()))
		for r := mem.RegionID(0); r < mem.RegionID(m.NumRegions()); r++ {
			if dest := mem.TierID(r) % tiers; dest != mem.DRAMTier {
				if _, err := m.MigrateRegion(r, dest); err != nil {
					t.Fatal(err)
				}
			}
		}
		return wl, m
	}
	stepper := func(wl workload.Workload, m *mem.Manager, buf *bytes.Buffer) *Stepper {
		s, err := NewStepper(Config{
			Manager: m, Workload: wl, OpsPerWindow: ops, SampleRate: 20,
			Recorder: obs.NewStream(buf),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	var got, want bytes.Buffer
	wl, m := build()
	bulk := stepper(wl, m, &got)
	wl, m = build()
	ref := stepper(wl, m, &want)
	replicaWl, replica := build()
	var accesses []workload.Access
	for w := 0; w < windows; w++ {
		if err := bulk.Step(); err != nil {
			t.Fatal(err)
		}
		if err := ref.StepAccess(); err != nil {
			t.Fatal(err)
		}
		perAccess := make([]tierObs, len(ref.tiers))
		for op := 0; op < ops; op++ {
			accesses = replicaWl.NextOp(accesses[:0])
			for _, a := range accesses {
				ar, err := replica.Access(a.Page, a.Write)
				if err != nil {
					t.Fatal(err)
				}
				o := &perAccess[ar.Tier]
				o.hist.Observe(ar.LatencyNs)
				if ar.Fault {
					o.stall += ar.LatencyNs
				}
			}
		}
		for tier, o := range perAccess {
			if o.hist.Count() == 0 {
				t.Fatalf("window %d: no access on tier %d; the test needs hits on every byte tier and faults on every compressed one", w+1, tier)
			}
			if compressed := replica.Tiers()[tier].Compressed; compressed != (o.stall > 0) {
				t.Fatalf("window %d tier %d: compressed %v but stall %v", w+1, tier, compressed, o.stall)
			}
		}
		for tier, o := range perAccess {
			ref.tiers[tier].hist, ref.tiers[tier].stall, ref.tiers[tier].hits = o.hist, o.stall, 0
		}
		if err := ref.StepControl(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Contains(want.Bytes(), []byte(`"TierLatency"`)) {
		t.Fatal("the reference stream carries no per-tier latency")
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("bulk hit counting changed the event stream: %d lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("bulk hit counting changed event line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
