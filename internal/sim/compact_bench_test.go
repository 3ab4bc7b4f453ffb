// Benchmark for the per-window compaction pass on a churn-heavy profile
// (an aggressive Waterfall demoter keeps every window's pools fragmented).
// The figures of merit are modeled and reported as custom metrics: the
// worst single window's compaction cost and the run totals; host time is
// the ledger's mem.compact_budgeted_ns probe and sim.phase_compact_ns
// (bench/).
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

func benchCompactRun(b *testing.B, pt int) *Result {
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
		Manager:      m,
		Workload:     wl,
		Model:        &model.Waterfall{Pct: 75}, // churn-heavy: big demote waves every window
		OpsPerWindow: 4000,
		Windows:      8,
		SampleRate:   20,
	}, pt)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkCompactWindow reports, per run: wall time (ns/op), the worst
// window's modeled compaction cost, and the run's total compaction cost
// and reclaimed pages, at push threads 1, 2 and 8.
func BenchmarkCompactWindow(b *testing.B) {
	for _, pt := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("pt=%d", pt), func(b *testing.B) {
			var worstNs, totalNs float64
			var pages, objects int
			for i := 0; i < b.N; i++ {
				res := benchCompactRun(b, pt)
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
