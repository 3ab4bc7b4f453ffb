package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tierscape/internal/model"
	"tierscape/internal/workload"
)

// budgetRun is ptRun with a compaction budget: the standard-mix harness at
// GOMAXPROCS procs with procs push threads and the given CompactBudget
// setting.
func budgetRun(t *testing.T, procs int, budget int) *Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
	res, err := runPT(Config{
		Manager:       standardMix(t, wl),
		Workload:      wl,
		Model:         &model.Waterfall{Pct: 50},
		OpsPerWindow:  4000,
		Windows:       5,
		SampleRate:    20,
		CompactBudget: budget,
	}, procs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestConcurrentCompactBudgetDeterminism extends the push-thread contract
// to budgeted compaction: with a fixed CompactBudget the full Result must
// be deep-equal across push threads 1, 2 and 8. Runs under -race in CI
// (the Concurrent suite).
func TestConcurrentCompactBudgetDeterminism(t *testing.T) {
	base := budgetRun(t, 1, 64)
	moved := 0
	for _, w := range base.Windows {
		moved += w.CompactObjectsMoved
	}
	if moved == 0 {
		t.Fatal("run compacted nothing; budget determinism test is vacuous")
	}
	for _, procs := range []int{2, 8} {
		got := budgetRun(t, procs, 64)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("GOMAXPROCS=%d result differs from GOMAXPROCS=1 under CompactBudget=64", procs)
		}
	}
}

// TestCompactBudgetUnboundedEquivalence: a zero CompactBudget is the
// historical full sweep, and an absurdly large explicit budget must be
// indistinguishable from it — the budget only defers work, never changes
// what an unconstrained pass does.
func TestCompactBudgetUnboundedEquivalence(t *testing.T) {
	unset := budgetRun(t, 2, 0)
	huge := budgetRun(t, 2, 1<<30)
	if !reflect.DeepEqual(unset, huge) {
		t.Fatal("CompactBudget=1<<30 result differs from the zero (unbounded) budget")
	}
	// The sweep must actually run under the default config, and a window
	// that reclaims pages must charge compaction time.
	for i, w := range unset.Windows {
		if w.CompactObjectsMoved > 0 && w.CompactNs <= 0 {
			t.Fatalf("window %d moved %d objects at zero cost", i, w.CompactObjectsMoved)
		}
		if w.CompactObjectsMoved == 0 && w.CompactNs != 0 {
			t.Fatalf("window %d charged %v ns without moving anything", i, w.CompactNs)
		}
	}
}

// TestCompactBudgetDefersWork: a tight budget must reclaim no more than
// the cap allows per window (modulo one zspage of overshoot per tier) and
// strand nothing by the end — the final footprint matches the unbounded
// run's once the backlog drains.
func TestCompactBudgetDefersWork(t *testing.T) {
	unbounded := budgetRun(t, 2, 0)
	bounded := budgetRun(t, 2, 8)
	var maxUnbounded, maxBounded int
	for _, w := range unbounded.Windows {
		if w.CompactedPages > maxUnbounded {
			maxUnbounded = w.CompactedPages
		}
	}
	for _, w := range bounded.Windows {
		if w.CompactedPages > maxBounded {
			maxBounded = w.CompactedPages
		}
	}
	if maxUnbounded <= 8 {
		t.Skipf("unbounded worst window reclaimed only %d pages; budget cannot bite", maxUnbounded)
	}
	// 8 pages of budget + one 4-page zspage of overshoot per compacted tier.
	if limit := 8 + 2*4; maxBounded > limit {
		t.Fatalf("worst bounded window reclaimed %d pages, want <= %d", maxBounded, limit)
	}
}

// TestCompactBudgetValidation: negative budgets are config errors, not
// silently-patched values.
func TestCompactBudgetValidation(t *testing.T) {
	for _, bad := range []int{-1, -5} {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		_, err := Run(Config{
			Manager:       standardMix(t, wl),
			Workload:      wl,
			Model:         &model.Waterfall{Pct: 50},
			OpsPerWindow:  100,
			Windows:       1,
			SampleRate:    20,
			CompactBudget: bad,
		})
		if err == nil || !strings.Contains(err.Error(), "CompactBudget") {
			t.Fatalf("CompactBudget=%d: want validation error, got %v", bad, err)
		}
	}
}
