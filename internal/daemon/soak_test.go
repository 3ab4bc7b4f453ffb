package daemon

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
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

// soakTenant is the smallest tenant whose window starts push-thread
// goroutines: Redis over one region and a few pages of a second, over
// DRAM and one lz4 tier, under a Waterfall that demotes both regions on
// the first window. Two moves are what make the apply engine start its
// goroutines (one move runs on the stepping goroutine), and zero-filled
// pages keep those moves cheap.
func soakTenant(t *testing.T) sim.Config {
	t.Helper()
	wl := workload.Redis(640, 3) // 565 pages
	m, err := mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         corpus.NewGenerator(corpus.Zero, 7),
		CompressedTiers: []ztier.Config{ztier.Characterization(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRegions() != 2 {
		t.Fatalf("soak tenant spans %d regions, want 2", m.NumRegions())
	}
	return sim.Config{
		Manager:      m,
		Workload:     wl,
		Model:        &model.Waterfall{Pct: 100},
		OpsPerWindow: 200,
		SampleRate:   20,
	}
}

// ownGoroutines counts the goroutines whose stacks are in the daemon or
// the simulator, including those started from there (the "created by"
// frame): the ones a tenant could leave behind. Goroutines of the runtime,
// of the testing package and of other tests' HTTP servers do not count.
func ownGoroutines() int {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		panic(err)
	}
	n := 0
	for _, g := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(g, "tierscape/internal/daemon.") || strings.Contains(g, "tierscape/internal/sim.") {
			n++
		}
	}
	return n
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
	goroutines := ownGoroutines()
	if goroutines < 2 { // this test's and the daemon loop's
		t.Fatalf("%d daemon goroutines before the soak; the stack filter sees nothing", goroutines)
	}
	var collected atomic.Int64
	var heap10 int64
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
		if w := res.Windows[0]; w.TierPages[0] != 0 || w.Moves <= 0 {
			t.Fatalf("cycle %d left %d pages in DRAM (%d moved); both regions must move for push threads to start", i, w.TierPages[0], w.Moves)
		}
		if i == 10 {
			heap10 = heapAfterGC()
		}
	}
	// A goroutine that is exiting may still be on its way out: settle for
	// a bounded time before calling one left behind.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n := ownGoroutines()
		if n <= goroutines {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("%d daemon and simulator goroutines after %d cycles, %d before", n, cycles, goroutines)
			break
		}
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
