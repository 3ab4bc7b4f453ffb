package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// goldenLive builds a Live fed with fixed, fully-populated events — two
// window snapshots (solver fields, migration flows, compaction counters),
// one runtime trace, and the daemon and sweep surfaces — so the rendered
// exposition exercises every series the hand-rolled format emits.
func goldenLive() *Live {
	l := NewLive()
	l.RecordWindow(WindowSnapshot{
		Window: 1, AppNs: 1.5e9, DaemonNs: 2.5e8, SolverNs: 1e8,
		MigrateNs: 1.2e8, CompactNs: 2e7, ProfileNs: 5e6, PrefetchNs: 5e6,
		TCO:       0.75,
		TierPages: []int64{700, 100, 150, 74}, TierBytes: []int64{2867200, 409600, 204800, 102400},
		TierRatio: []float64{0, 0, 0.42, 0.31}, TierFrag: []float64{0, 0, 0.125, 0.0625},
		RecommendedPages: []int64{512, 256, 128, 128},
		Migrations: []TierFlow{
			{From: 0, To: 2, Pages: 100, Rejected: 4},
			{From: 2, To: 0, Pages: 50, Rejected: 0},
		},
		Faults: 12, Moves: 150, Rejected: 4, Skipped: 9, TierFullMoves: 1,
		CompactedPages: 3, CompactObjectsMoved: 17, CompactSkippedTiers: 1,
		DroppedPressure: 2, DroppedCapacity: 1, DroppedBudget: 3,
		Latency: LatencySummary{Count: 1200, SumNs: 3.6e6, P50Ns: 128, P95Ns: 4096, P99Ns: 8192, P999Ns: 16384},
		TierLatency: []LatencySummary{
			{Count: 1000, SumNs: 1e5, P50Ns: 128, P95Ns: 128, P99Ns: 256, P999Ns: 256,
				Buckets: []HistBucket{{B: 7, N: 980}, {B: 8, N: 20}}},
			{},
			{Count: 200, SumNs: 3.5e6, P50Ns: 16384, P95Ns: 32768, P99Ns: 32768, P999Ns: 32768,
				Buckets: []HistBucket{{B: 14, N: 150}, {B: 15, N: 50}}},
			{},
		},
		FaultStallNs: 2.4e5, InterferenceNs: 5e6, Pressure: 0.0035,
		TierStallNs:   []float64{0, 0, 2.4e5, 0},
		PingPongMoves: 3, ThrashRegions: 1, ThrashScore: 2.5,
		MigratedBytes: 630784, StormBytesPerSec: 420522.7,
	})
	l.RecordWindow(WindowSnapshot{
		Window: 2, AppNs: 1.25e9, DaemonNs: 1.5e8, SolverNs: 5e7,
		MigrateNs: 9e7, CompactNs: 5e6, ProfileNs: 2.5e6, PrefetchNs: 2.5e6,
		TCO:       0.5,
		TierPages: []int64{600, 120, 200, 104}, TierBytes: []int64{2457600, 491520, 245760, 131072},
		TierRatio: []float64{0, 0, 0.4, 0.3}, TierFrag: []float64{0, 0, 0.25, 0.125},
		Migrations: []TierFlow{{From: 0, To: 3, Pages: 64, Rejected: 2}},
		Faults:     30, Moves: 64, Rejected: 2, Skipped: 1,
		SolverFallbacks: 1,
		Latency:         LatencySummary{Count: 900, SumNs: 2.2e6, P50Ns: 128, P95Ns: 2048, P99Ns: 8192, P999Ns: 8192},
		TierLatency: []LatencySummary{
			{Count: 800, SumNs: 9e4, P50Ns: 128, P95Ns: 128, P99Ns: 128, P999Ns: 256,
				Buckets: []HistBucket{{B: 7, N: 795}, {B: 8, N: 5}}},
			{},
			{Count: 60, SumNs: 1e6, P50Ns: 16384, P95Ns: 32768, P99Ns: 32768, P999Ns: 32768,
				Buckets: []HistBucket{{B: 14, N: 40}, {B: 15, N: 20}}},
			{Count: 40, SumNs: 1.1e6, P50Ns: 32768, P95Ns: 32768, P99Ns: 32768, P999Ns: 32768,
				Buckets: []HistBucket{{B: 15, N: 40}}},
		},
		FaultStallNs: 1.8e5, InterferenceNs: 3e6, Pressure: 0.002544,
		TierStallNs:   []float64{0, 0, 1.2e5, 6e4},
		PingPongMoves: 1, ThrashRegions: 0, ThrashScore: 1.25,
		MigratedBytes: 270336, StormBytesPerSec: 216268.8,
	})
	l.RecordRuntime(WindowRuntime{
		Window:        2,
		PhaseWallNs:   [NumPhases]float64{1e6, 2e6, 5e5, 4e6, 1.5e6},
		PrepareWallNs: 3e6, CommitWallNs: 1e6,
		Sched: SchedulerStats{Jobs: 8, BlockedAwaits: 2, StallNs: 250000},
	})
	// Daemon surface.
	l.SetDaemonAttached(2)
	for i := 0; i < 3; i++ {
		l.AddDaemonTick()
	}
	l.AddDaemonCommand("attach", true)
	l.AddDaemonCommand("attach", true)
	l.AddDaemonCommand("detach", false)
	l.AddDaemonCommand("set-alpha", true)
	// Sweep surface: two finished figures — lookups and hits add up, bytes
	// is the last one's.
	l.AddStoreMemo(1000, 600, 262144)
	l.AddStoreMemo(500, 320, 131072)
	// Health surface: one degradation and one recovery so both
	// transition counters are non-zero in the golden.
	l.setHealth(true)
	l.setHealth(false)
	return l
}

// TestPrometheusGolden pins the Prometheus text exposition byte-for-byte
// against testdata/prometheus.golden: the format is hand-rolled (no
// client library), so this is the guard that keeps series names, label
// ordering and help strings from silently drifting under scrapers' feet.
// Regenerate deliberately with: go test ./internal/obs -run Golden -update
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenLive().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Prometheus exposition drifted from %s.\nIf the change is intentional, regenerate with -update.\ngot:\n%s\nwant:\n%s",
			path, buf.Bytes(), want)
	}
	// The golden snapshot is also the fixture for the series the CI
	// smoke greps; assert they are present by name so a rename cannot
	// hide behind a -update regeneration.
	for _, series := range []string{
		"\ntierscape_windows_total ",
		"\ntierscape_daemon_ticks_total ",
		"\ntierscape_daemon_attached_workloads ",
		"tierscape_daemon_commands_total{op=\"attach\",outcome=\"ok\"} 2",
		"tierscape_access_latency_seconds_bucket{tier=\"0\",le=\"+Inf\"} ",
		"\ntierscape_access_latency_seconds_count{tier=\"0\"} ",
		"tierscape_pressure_stall_seconds_total{kind=\"fault\"} ",
		"\ntierscape_health_state ",
		"tierscape_health_transitions_total{to=\"degraded\"} 1",
		"\ntierscape_pingpong_moves_total ",
		"\ntierscape_storm_bytes_per_sec ",
		"\ntierscape_solver_lp_gap ",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Errorf("exposition lost series %q", series)
		}
	}
}
