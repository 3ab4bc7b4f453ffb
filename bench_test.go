// Benchmark harness: one benchmark per paper table/figure (regenerating
// the exhibit and reporting its headline numbers as custom metrics), plus
// ablation benches for DESIGN.md §5's design choices. The substrates
// (codecs, pool managers, MCKP solver, a whole standard run) are measured
// by bench/'s probes and kv_steady, with the host recorded.
//
// Figure benches run the experiment harness at test scale per iteration;
// absolute wall time is the harness cost, while the reported custom
// metrics (savings_pct, slowdown_pct, ...) carry the reproduction result.
// Harnesses submit runs through the experiments run engine, so figure
// benches fan out across GOMAXPROCS workers; the _Serial variants run at
// GOMAXPROCS 1 — one worker — as the speedup reference.
package tierscape

import (
	"runtime"
	"strconv"
	"testing"

	"tierscape/internal/experiments"
)

// cellF extracts a float cell from a table for metric reporting.
func cellF(b *testing.B, t *experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

func benchScale() experiments.Scale { return experiments.SmallScale() }

func BenchmarkFig1_SingleTierAggressiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cellF(b, t, 2, 1), "savings80_pct")
		b.ReportMetric(cellF(b, t, 2, 2), "slowdown80_pct")
	}
}

func BenchmarkFig2_Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig2(256)
		// C1 nci latency (row 0 col 3) and C12 nci normalized TCO (row 11 col 4).
		b.ReportMetric(cellF(b, t, 0, 3), "c1_nci_us")
		b.ReportMetric(cellF(b, t, 11, 4), "c12_nci_normtco")
	}
}

func BenchmarkFig7_StandardMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig7(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		// AM-TCO row of the first workload: savings metric.
		b.ReportMetric(cellF(b, t, 4, 3), "memcached_amtco_savings_pct")
	}
}

// BenchmarkFig7_StandardMix_Serial runs at GOMAXPROCS 1, so the run
// engine has one worker: the wall-time gap to BenchmarkFig7_StandardMix is
// the pool's speedup, and
// both variants must report identical metrics (determinism guarantee).
func BenchmarkFig7_StandardMix_Serial(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig7(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cellF(b, t, 4, 3), "memcached_amtco_savings_pct")
	}
}

func BenchmarkFig8_WaterfallPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig8(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		b.ReportMetric(cellF(b, t, last, 6), "final_savings_pct")
	}
}

func BenchmarkFig9_AMRecommendationVsActual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig9(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := len(t.Rows) - 1
		b.ReportMetric(cellF(b, t, last, 9), "ct_faults")
	}
}

func BenchmarkFig10_KnobSpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig10(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cellF(b, t, 4, 2), "alpha01_savings_pct")
		b.ReportMetric(cellF(b, t, 0, 2), "alpha09_savings_pct")
	}
}

func BenchmarkFig11_TailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig11(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		// AM-TCO normalized p99.9 (row 4, col 3).
		b.ReportMetric(cellF(b, t, 4, 3), "amtco_p999_norm")
	}
}

func BenchmarkFig12_SpectrumPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13_Spectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig13(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		// First workload, AM-A row (index 8): savings.
		b.ReportMetric(cellF(b, t, 8, 3), "memcached_ama_savings_pct")
	}
}

func BenchmarkFig14_Tax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig14(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		// only-profiling relative performance (row 1 col 1).
		b.ReportMetric(cellF(b, t, 1, 1), "profiling_rel_perf")
	}
}

func BenchmarkTable1_OptionSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		if len(t.Rows) != 54 {
			b.Fatal("option space must have 54 tiers")
		}
	}
}

// Ablation benches (DESIGN.md §5).

func BenchmarkAblation_TierCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.TierCountAblation(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cellF(b, t, 2, 1)-cellF(b, t, 0, 1), "savings_gain_5v1_le5_pp")
		b.ReportMetric(cellF(b, t, 2, 3)-cellF(b, t, 0, 3), "savings_gain_5v1_le10_pp")
	}
}

func BenchmarkAblation_SolverLPGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.SolverAblation(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cellF(b, t, 0, 4), "lp_gap_pct_max")
	}
}

func BenchmarkAblation_MigrationFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.FilterAblation(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cellF(b, t, 0, 3), "faults_filter_on")
		b.ReportMetric(cellF(b, t, 1, 3), "faults_filter_off")
	}
}

func BenchmarkAblation_WindowLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WindowAblation(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Prefetcher(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.PrefetchAblation(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cellF(b, t, 2, 4), "prefetches_thr4")
	}
}

func BenchmarkCXLVariant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.CXLVariant(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cellF(b, t, 3, 3), "cxl_amtco_savings_pct")
	}
}

func BenchmarkExtension_CompressibilityAware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.CompressibilityAware(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cellF(b, t, 1, 2), "aware_savings_pct")
	}
}

func BenchmarkExtension_Colocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Colocation(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cellF(b, t, 2, 3), "colocated_savings_pct")
	}
}

func BenchmarkAblation_Telemetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.TelemetryAblation(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cellF(b, t, 1, 2), "abit_savings_pct")
	}
}
