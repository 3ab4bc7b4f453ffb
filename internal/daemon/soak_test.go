package daemon

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/sim"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// soakTenant is the smallest tenant that still moves pages: a partial
// region of Redis over DRAM and one lz4 tier, under a Waterfall that
// demotes the region on its first window.
func soakTenant(t *testing.T) sim.Config {
	t.Helper()
	wl := workload.Redis(32, 3)
	m, err := mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         corpus.NewGenerator(wl.Content(), 7),
		CompressedTiers: []ztier.Config{ztier.Characterization(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Manager:      m,
		Workload:     wl,
		Model:        &model.Waterfall{Pct: 75},
		OpsPerWindow: 200,
		SampleRate:   sim.Int(20),
	}
}

// heapAfterGC is HeapAlloc once two collections have run.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestAttachDetachSoak: a thousand attach → tick → detach cycles of one
// small tenant leave the daemon as they found it — no goroutine left
// behind, a heap as large after the last cycle as after the tenth, and
// every detached tenant's manager collected. A manager outliving its
// Detach means something still reaches its stepper, a push thread's
// scratch or a prepared region (each refers to the manager); a slab or
// buffer kept anywhere else shows in the heap.
func TestAttachDetachSoak(t *testing.T) {
	const cycles = 1000
	d, clk := newTestDaemon(t, DefaultConfig(), nil)
	goroutines := runtime.NumGoroutine()
	var collected atomic.Int64
	var heap10 int64
	moved := 0
	for i := 1; i <= cycles; i++ {
		cfg := soakTenant(t)
		runtime.SetFinalizer(cfg.Manager, func(*mem.Manager) { collected.Add(1) })
		if err := d.Attach("soak", cfg); err != nil {
			t.Fatal(err)
		}
		cfg = sim.Config{}
		clk.Step()
		res, err := d.Detach("soak")
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if len(res.Windows) != 1 {
			t.Fatalf("cycle %d: %d windows, want 1", i, len(res.Windows))
		}
		moved += res.Windows[0].Moves
		if i == 10 {
			heap10 = heapAfterGC()
		}
	}
	if moved == 0 {
		t.Fatal("no tenant moved a page; the soak never used a push thread's scratch")
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Errorf("%d goroutines after %d cycles, %d before", n, cycles, goroutines)
	}
	if grown := heapAfterGC() - heap10; grown > 1<<20 || grown < -1<<20 {
		t.Errorf("heap moved by %d bytes between cycle 10 and cycle %d, want within 1 MB", grown, cycles)
	}
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < cycles; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d detached managers were never collected", cycles-collected.Load(), cycles)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
