package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"tierscape/internal/model"
	"tierscape/internal/sim"
	"tierscape/internal/ztier"
)

// withProcs runs f at GOMAXPROCS n — the pool's width — restoring the old
// value afterwards.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

func TestRunSetRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		withProcs(workers, func() {
			const n = 100
			counts := make([]int32, n)
			if err := RunSet(n, func(i int) error {
				atomic.AddInt32(&counts[i], 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
				}
			}
		})
	}
}

func TestRunSetEmpty(t *testing.T) {
	if err := RunSet(0, func(int) error { t.Fatal("job called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunSetDeterministicFirstError(t *testing.T) {
	// Multiple jobs fail; the reported error must be the lowest-index one
	// regardless of worker scheduling — exactly what a serial loop reports.
	for _, workers := range []int{1, 8} {
		withProcs(workers, func() {
			for trial := 0; trial < 20; trial++ {
				err := RunSet(50, func(i int) error {
					if i == 7 || i == 23 || i == 49 {
						return fmt.Errorf("job %d failed", i)
					}
					return nil
				})
				if err == nil || err.Error() != "job 7 failed" {
					t.Fatalf("workers=%d: err = %v, want job 7's", workers, err)
				}
			}
		})
	}
}

func TestRunSetCompletesAllJobsDespiteErrors(t *testing.T) {
	withProcs(4, func() {
		var ran int32
		err := RunSet(20, func(i int) error {
			atomic.AddInt32(&ran, 1)
			return errors.New("boom")
		})
		if err == nil {
			t.Fatal("expected error")
		}
		if ran != 20 {
			t.Fatalf("only %d/20 jobs ran; failures must not cancel the set", ran)
		}
	})
}

func TestRunJobsPropagatesBuildError(t *testing.T) {
	s := SmallScale()
	spec := workloadByName("Memcached/YCSB")
	results, err := runJobs(s, []runJob{
		{spec: spec},
		{spec: spec, tiers: lineup{compressed: []ztier.Config{{Codec: "no-such-codec", Pool: "zsmalloc"}}}},
	})
	if err == nil || !strings.Contains(err.Error(), "building manager for Memcached/YCSB") || !strings.Contains(err.Error(), "no-such-codec") {
		t.Fatalf("err = %v, want the wrapped build error naming the codec", err)
	}
	if results != nil {
		t.Fatal("failed set must not return partial results")
	}
}

// TestParallelSerialIdenticalTables is the engine's core guarantee: a
// harness table is byte-identical whether runs execute serially or fan out
// across workers, at GOMAXPROCS 1 and 8. Fig1 (4 runs) and
// TierCountAblation (30 runs, three distinct lineups) cover single-lineup
// and multi-lineup job sets.
func TestParallelSerialIdenticalTables(t *testing.T) {
	s := SmallScale()
	for _, harness := range []struct {
		name string
		run  func(Scale) (*Table, error)
	}{
		{"Fig1", Fig1},
		{"TierCountAblation", TierCountAblation},
	} {
		t.Run(harness.name, func(t *testing.T) {
			var serialCSV, parallelCSV string
			withProcs(1, func() {
				tab, err := harness.run(s)
				if err != nil {
					t.Fatal(err)
				}
				serialCSV = tab.CSV()
			})
			withProcs(8, func() {
				tab, err := harness.run(s)
				if err != nil {
					t.Fatal(err)
				}
				parallelCSV = tab.CSV()
			})
			if serialCSV != parallelCSV {
				t.Fatalf("tables differ between GOMAXPROCS 1 and 8:\nserial:\n%s\nparallel:\n%s",
					serialCSV, parallelCSV)
			}
		})
	}
}

// TestFig2ParallelSerialIdentical covers the non-sim RunSet user: the
// characterization matrix must also be order-independent.
func TestFig2ParallelSerialIdentical(t *testing.T) {
	var serialCSV, parallelCSV string
	withProcs(1, func() { serialCSV = Fig2(64).CSV() })
	withProcs(8, func() { parallelCSV = Fig2(64).CSV() })
	if serialCSV != parallelCSV {
		t.Fatal("Fig2 tables differ between serial and parallel execution")
	}
}

// TestConcurrentPushThreadsIdenticalTables extends the engine's
// determinism guarantee to intra-run parallelism: the standard harness
// (the Fig-5/10 knob sweep — Waterfall plus AM at five α values) must
// emit byte-identical tables at GOMAXPROCS 1, 2 and 8, whether each run's
// two real push threads share one core with every other run or spread
// across several. Runs under -race in CI.
func TestConcurrentPushThreadsIdenticalTables(t *testing.T) {
	s := SmallScale()
	tables := make(map[int]string)
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			tab, err := Fig10(s)
			if err != nil {
				t.Fatal(err)
			}
			tables[procs] = tab.CSV()
		})
	}
	for _, procs := range []int{2, 8} {
		if tables[procs] != tables[1] {
			t.Fatalf("Fig10 table differs between GOMAXPROCS 1 and %d:\nGOMAXPROCS 1:\n%s\nGOMAXPROCS %d:\n%s",
				procs, tables[1], procs, tables[procs])
		}
	}
}

// TestConcurrentFallbackHeavyFig10CSV reruns the Fig-10 sweep on a manager
// whose CT-1 pool is clamped to a sliver, so every run's demotions hit
// ErrTierFull and commit outcomes depend on fallback placement — the
// shape in which commit order matters most. The CSV must stay
// byte-identical across GOMAXPROCS 1, 2 and 8. Runs under -race -count=3
// in CI (the Concurrent suite).
func TestConcurrentFallbackHeavyFig10CSV(t *testing.T) {
	s := SmallScale()
	const ct1PoolPages = 24
	mix := standardMix()
	gswap, err := model.GSwapStar.New(mix.byteTiers, mix.compressed, 25)
	if err != nil {
		t.Fatal(err)
	}
	clamped := func(c *sim.Config) {
		if err := c.Manager.SetCompressedTierLimit(gswap.SlowTier, ct1PoolPages); err != nil {
			t.Error(err)
		}
	}
	// Non-vacuousness: under the clamp an aggressive demoter must actually
	// have moves rejected at commit time.
	res, err := runOne(s, runJob{spec: workloadByName("Memcached/YCSB"), mdl: &model.Waterfall{Pct: 75}, cfg: clamped})
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, w := range res.Windows {
		rejected += w.Rejected
	}
	if rejected == 0 {
		t.Fatal("clamped CT-1 produced no rejected moves; fallback-heavy test is vacuous")
	}
	tables := make(map[int]string)
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			tab, err := fig10With(s, clamped)
			if err != nil {
				t.Fatal(err)
			}
			tables[procs] = tab.CSV()
		})
	}
	for _, procs := range []int{2, 8} {
		if tables[procs] != tables[1] {
			t.Fatalf("fallback-heavy Fig10 CSV differs between GOMAXPROCS 1 and %d:\nGOMAXPROCS 1:\n%s\nGOMAXPROCS %d:\n%s",
				procs, tables[1], procs, tables[procs])
		}
	}
}
