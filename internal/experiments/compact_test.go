package experiments

import "testing"

// TestConcurrentCompactBudgetIdenticalTables pins the budgeted compactor
// into the table-level determinism contract: with a tight
// Scale.CompactBudget the Fig-10 sweep must emit byte-identical CSVs at
// GOMAXPROCS 1, 2 and 8. (The budget changes the modeled results versus
// the default — that is its point — but never introduces schedule
// dependence.) Runs under -race in CI (the Concurrent suite).
func TestConcurrentCompactBudgetIdenticalTables(t *testing.T) {
	s := SmallScale()
	budgeted := s
	budgeted.CompactBudget = 16
	tables := make(map[int]string)
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			tab, err := Fig10(budgeted)
			if err != nil {
				t.Fatal(err)
			}
			tables[procs] = tab.CSV()
		})
	}
	for _, procs := range []int{2, 8} {
		if tables[procs] != tables[1] {
			t.Fatalf("budgeted Fig10 table differs between GOMAXPROCS 1 and %d:\nGOMAXPROCS 1:\n%s\nGOMAXPROCS %d:\n%s",
				procs, tables[1], procs, tables[procs])
		}
	}
	// The budget belongs to the Scale that carries it: the same sweep at
	// the unbounded Scale, run after the budgeted ones, runs unbounded.
	withProcs(8, func() {
		tab, err := Fig10(s)
		if err != nil {
			t.Fatal(err)
		}
		if tab.CSV() == tables[1] {
			t.Fatal("the unbounded Fig10 table equals the budgeted one")
		}
	})
}
