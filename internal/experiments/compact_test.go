package experiments

import "testing"

// withCompactBudget runs f with the process-wide compaction budget set,
// restoring the unbounded default afterwards.
func withCompactBudget(t *testing.T, n int, f func()) {
	t.Helper()
	SetCompactBudget(n)
	defer SetCompactBudget(0)
	f()
}

// TestConcurrentCompactBudgetIdenticalTables pins the budgeted compactor
// into the table-level determinism contract: with a tight process-wide
// -compact-budget the Fig-10 sweep must emit byte-identical CSVs at
// GOMAXPROCS 1, 2 and 8. (The budget changes the modeled results versus
// the default — that is its point — but never introduces schedule
// dependence.) Runs under -race in CI (the Concurrent suite).
func TestConcurrentCompactBudgetIdenticalTables(t *testing.T) {
	s := SmallScale()
	tables := make(map[int]string)
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			withCompactBudget(t, 16, func() {
				tab, err := Fig10(s)
				if err != nil {
					t.Fatal(err)
				}
				tables[procs] = tab.CSV()
			})
		})
	}
	for _, procs := range []int{2, 8} {
		if tables[procs] != tables[1] {
			t.Fatalf("budgeted Fig10 table differs between GOMAXPROCS 1 and %d:\nGOMAXPROCS 1:\n%s\nGOMAXPROCS %d:\n%s",
				procs, tables[1], procs, tables[procs])
		}
	}
	if CompactBudget() != 0 {
		t.Fatal("compact budget not restored to unbounded")
	}
}
