package sim

import (
	"reflect"
	"testing"

	"tierscape/internal/model"
)

// TestConcurrentCompactBudgetDeterminism extends the push-thread contract
// to the per-window compaction pass: on a run whose pools churn, the full
// Result must be deep-equal across push threads 1, 2 and 8. The pass has
// no page budget any more; every window runs it to completion. Runs under
// -race in CI (the Concurrent suite).
func TestConcurrentCompactBudgetDeterminism(t *testing.T) {
	base := ptRun(t, &model.Waterfall{Pct: 50}, 1)
	moved := 0
	for _, w := range base.Windows {
		moved += w.CompactObjectsMoved
	}
	if moved == 0 {
		t.Fatal("run compacted nothing; the determinism check is vacuous")
	}
	for _, procs := range []int{2, 8} {
		if got := ptRun(t, &model.Waterfall{Pct: 50}, procs); !reflect.DeepEqual(got, base) {
			t.Fatalf("GOMAXPROCS=%d result differs from GOMAXPROCS=1", procs)
		}
	}
}

// TestCompactBudgetUnboundedEquivalence: every window runs the one
// unbounded pass, the only compaction left now that the page budget is
// gone. The pass must actually run under the default config, and a window
// charges compaction time exactly when it moved objects.
func TestCompactBudgetUnboundedEquivalence(t *testing.T) {
	res := ptRun(t, &model.Waterfall{Pct: 50}, 2)
	moved := 0
	for i, w := range res.Windows {
		moved += w.CompactObjectsMoved
		if w.CompactObjectsMoved > 0 && w.CompactNs <= 0 {
			t.Fatalf("window %d moved %d objects at zero cost", i, w.CompactObjectsMoved)
		}
		if w.CompactObjectsMoved == 0 && w.CompactNs != 0 {
			t.Fatalf("window %d charged %v ns without moving anything", i, w.CompactNs)
		}
	}
	if moved == 0 {
		t.Fatal("run compacted nothing; the cost check is vacuous")
	}
}
