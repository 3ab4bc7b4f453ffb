package sim

import (
	"runtime"
	"testing"
)

// baselineStepper builds a baseline-model (no migrations, so nothing but
// the access loop scales with the window) stepper over the small KV
// workload.
func baselineStepper(t *testing.T, opsPerWindow int) *Stepper {
	t.Helper()
	wl := smallKV(t)
	st, err := NewStepper(Config{
		Manager:      standardMix(t, wl),
		Workload:     wl,
		OpsPerWindow: opsPerWindow,
		SampleRate:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStepAllocsPerRun: a Step allocates the same number of objects at
// 1 k and at 100 k ops per window — its window record, its profile
// snapshot — so the access loop allocates nothing per op: not in NextOp,
// not in Access, not in OpLat.
func TestStepAllocsPerRun(t *testing.T) {
	allocs := func(opsPerWindow int) float64 {
		st := baselineStepper(t, opsPerWindow)
		return testing.AllocsPerRun(8, func() {
			if err := st.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(100000); small != large {
		t.Fatalf("Step allocates %v objects at 1 k ops per window, %v at 100 k: something allocates per op", small, large)
	}
}

// TestStepRetainedHeapIndependentOfOps: what a stepper holds on to after
// a fixed number of windows does not depend on how many ops each window
// ran. A resident daemon steps a tenant for as long as it stays attached;
// anything appended per op (OpLat was a []float64 of every op's latency:
// 8 B per op, forever) is a leak there.
func TestStepRetainedHeapIndependentOfOps(t *testing.T) {
	const windows = 8
	retained := func(opsPerWindow int) int64 {
		// Two cycles each time: the first moves sync.Pool contents to
		// their victim caches, the second frees them.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		st := baselineStepper(t, opsPerWindow)
		for w := 0; w < windows; w++ {
			if err := st.Step(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if got := st.Result().OpLat.Count(); got != windows*opsPerWindow {
			t.Fatalf("OpLat counted %d ops, want %d", got, windows*opsPerWindow)
		}
		runtime.KeepAlive(st)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	small, large := retained(6000), retained(60000)
	if d := large - small; d > 64<<10 || d < -64<<10 {
		t.Fatalf("stepper retains %d B after %d windows of 6 k ops, %d B after %d windows of 60 k: %d B apart, want within 64 KB",
			small, windows, large, windows, d)
	}
}
