// Benchmark for the per-window compaction pass: the unbounded full sweep
// against budgeted incremental compaction on a churn-heavy profile (an
// aggressive Waterfall demoter keeps every window's pools fragmented).
// The figures of merit are modeled and reported as custom metrics: the
// worst single window's compaction cost (what the budget caps) and the run
// totals; host time is the ledger's mem.compact_budgeted_ns and
// sim.phase_compact_ns (bench/). Budgeted totals may come in below the
// full sweep's: deferred donors whose remaining objects are faulted out
// before the next pass drain for free, work the eager sweep paid to move.
package sim

import (
	"fmt"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

func benchCompactRun(b *testing.B, pt int, budget int) *Result {
	b.Helper()
	wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
	m, err := mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         corpus.NewGenerator(wl.Content(), 99),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := runPT(Config{
		Manager:       m,
		Workload:      wl,
		Model:         &model.Waterfall{Pct: 75}, // churn-heavy: big demote waves every window
		OpsPerWindow:  4000,
		Windows:       8,
		SampleRate:    20,
		CompactBudget: budget,
	}, pt)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkCompactWindow reports, per run: wall time (ns/op), the worst
// window's modeled compaction cost, and the run's total compaction cost
// and reclaimed pages. sweep=full is the historical unbounded pass;
// sweep=budget64 caps each window at 64 reclaimed pool pages.
func BenchmarkCompactWindow(b *testing.B) {
	variants := []struct {
		name   string
		budget int
	}{
		{"full", 0},
		{"budget64", 64},
		{"budget16", 16},
	}
	for _, v := range variants {
		for _, pt := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("sweep=%s/pt=%d", v.name, pt), func(b *testing.B) {
				var worstNs, totalNs float64
				var pages, objects int
				for i := 0; i < b.N; i++ {
					res := benchCompactRun(b, pt, v.budget)
					worstNs, totalNs, pages, objects = 0, 0, 0, 0
					for _, w := range res.Windows {
						if w.CompactNs > worstNs {
							worstNs = w.CompactNs
						}
						totalNs += w.CompactNs
						pages += w.CompactedPages
						objects += w.CompactObjectsMoved
					}
				}
				b.ReportMetric(worstNs, "worst_window_compact_ns")
				b.ReportMetric(totalNs, "total_compact_ns")
				b.ReportMetric(float64(pages), "compacted_pages")
				b.ReportMetric(float64(objects), "objects_moved")
			})
		}
	}
}
