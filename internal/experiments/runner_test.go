package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/workload"
)

// withParallelism runs f with the pool pinned to n workers, restoring the
// default afterwards.
func withParallelism(t *testing.T, n int, f func()) {
	t.Helper()
	SetParallelism(n)
	defer SetParallelism(0)
	f()
}

func TestRunSetRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		withParallelism(t, workers, func() {
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
		withParallelism(t, workers, func() {
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
	withParallelism(t, 4, func() {
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

func TestParallelismClamping(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("default parallelism = %d, want >= 1", got)
	}
	SetParallelism(-5)
	if got := Parallelism(); got < 1 {
		t.Fatalf("negative parallelism not clamped: %d", got)
	}
}

func TestRunJobsPropagatesBuildError(t *testing.T) {
	s := SmallScale()
	spec := workloadByName("Memcached/YCSB")
	boom := errors.New("no such medium")
	results, err := runJobs(s, []runJob{
		{spec: spec},
		{spec: spec, build: func(wl workload.Workload, seed uint64) (*mem.Manager, error) {
			return nil, boom
		}},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped build error", err)
	}
	if results != nil {
		t.Fatal("failed set must not return partial results")
	}
}

// TestParallelSerialIdenticalTables is the engine's core guarantee: a
// harness table is byte-identical whether runs execute serially or fan out
// across workers. Fig1 (4 runs) and TierCountAblation (6 runs, three
// distinct builders) cover single-builder and multi-builder job sets.
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
			withParallelism(t, 1, func() {
				tab, err := harness.run(s)
				if err != nil {
					t.Fatal(err)
				}
				serialCSV = tab.CSV()
			})
			withParallelism(t, 8, func() {
				tab, err := harness.run(s)
				if err != nil {
					t.Fatal(err)
				}
				parallelCSV = tab.CSV()
			})
			if serialCSV != parallelCSV {
				t.Fatalf("tables differ between -parallel 1 and -parallel 8:\nserial:\n%s\nparallel:\n%s",
					serialCSV, parallelCSV)
			}
		})
	}
}

// TestFig2ParallelSerialIdentical covers the non-sim RunSet user: the
// characterization matrix must also be order-independent.
func TestFig2ParallelSerialIdentical(t *testing.T) {
	var serialCSV, parallelCSV string
	withParallelism(t, 1, func() { serialCSV = Fig2(64).CSV() })
	withParallelism(t, 8, func() { parallelCSV = Fig2(64).CSV() })
	if serialCSV != parallelCSV {
		t.Fatal("Fig2 tables differ between serial and parallel execution")
	}
}

// withPushThreads runs f with every run's migration engine pinned to n
// push threads, restoring the sim default afterwards.
func withPushThreads(t *testing.T, n int, f func()) {
	t.Helper()
	SetPushThreads(n)
	defer SetPushThreads(0)
	f()
}

// TestConcurrentPushThreadsIdenticalTables extends the engine's
// determinism guarantee to intra-run parallelism: the standard harness
// (the Fig-5/10 knob sweep — Waterfall plus AM at five α values) must
// emit byte-identical tables whether each run applies its migrations with
// 1, 2 or 8 real push threads. Runs under -race in CI.
func TestConcurrentPushThreadsIdenticalTables(t *testing.T) {
	s := SmallScale()
	tables := make(map[int]string)
	for _, threads := range []int{1, 2, 8} {
		withPushThreads(t, threads, func() {
			tab, err := Fig10(s)
			if err != nil {
				t.Fatal(err)
			}
			tables[threads] = tab.CSV()
		})
	}
	for _, threads := range []int{2, 8} {
		if tables[threads] != tables[1] {
			t.Fatalf("Fig10 table differs between PushThreads 1 and %d:\nPT1:\n%s\nPT%d:\n%s",
				threads, tables[1], threads, tables[threads])
		}
	}
}

// TestConcurrentFallbackHeavyFig10CSV reruns the Fig-10 sweep on a manager
// whose CT-1 pool is clamped to a sliver, so every run's demotions hit
// ErrTierFull and commit outcomes depend on fallback placement — the
// shape in which commit order matters most. The CSV must stay
// byte-identical across PushThreads 1, 2 and 8. Runs under -race -count=3
// in CI (the Concurrent suite).
func TestConcurrentFallbackHeavyFig10CSV(t *testing.T) {
	s := SmallScale()
	const ct1PoolPages = 24
	clamped := func(wl workload.Workload, seed uint64) (*mem.Manager, error) {
		m, err := standardManager(wl, seed)
		if err != nil {
			return nil, err
		}
		if err := m.SetCompressedTierLimit(stdCT1, ct1PoolPages); err != nil {
			return nil, err
		}
		return m, nil
	}
	// Non-vacuousness: under the clamp an aggressive demoter must actually
	// have moves rejected at commit time.
	res, err := runOne(s, workloadByName("Memcached/YCSB"), &model.Waterfall{Pct: 75}, clamped)
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
	for _, threads := range []int{1, 2, 8} {
		withPushThreads(t, threads, func() {
			tab, err := fig10With(s, clamped)
			if err != nil {
				t.Fatal(err)
			}
			tables[threads] = tab.CSV()
		})
	}
	for _, threads := range []int{2, 8} {
		if tables[threads] != tables[1] {
			t.Fatalf("fallback-heavy Fig10 CSV differs between PushThreads 1 and %d:\nPT1:\n%s\nPT%d:\n%s",
				threads, tables[1], threads, tables[threads])
		}
	}
}
