package sim

import (
	"reflect"
	"runtime"
	"testing"

	"tierscape/internal/model"
	"tierscape/internal/workload"
)

// TestPrefetcherReducesFaultLatency checks §3.2's premise: with a
// prefetcher, pages the aggressive placement got wrong are pulled back in
// bulk by the daemon instead of faulting one by one in the application's
// critical path.
func TestPrefetcherReducesFaultLatency(t *testing.T) {
	runWith := func(threshold int) *Result {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		res, err := Run(Config{
			Manager:                standardMix(t, wl),
			Workload:               wl,
			Model:                  &model.Analytical{Alpha: 0.1, ModelName: "AM-TCO"},
			OpsPerWindow:           5000,
			Windows:                6,
			SampleRate:             20,
			PrefetchFaultThreshold: threshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := runWith(0)
	on := runWith(8)

	if on.Prefetches == 0 {
		t.Fatal("prefetcher never fired under aggressive placement")
	}
	if off.Prefetches != 0 {
		t.Fatal("prefetches counted while disabled")
	}
	// Prefetching moves fault work off the op critical path: tail latency
	// must not get worse, and the number of demand faults must drop.
	if on.Faults >= off.Faults {
		t.Fatalf("faults with prefetcher %d >= without %d", on.Faults, off.Faults)
	}
	if p := on.OpLat.Percentile(99.9); p > off.OpLat.Percentile(99.9)*1.2 {
		t.Fatalf("prefetcher made p99.9 worse: %v vs %v", p, off.OpLat.Percentile(99.9))
	}
}

// TestPushThreadsInvariant pins the determinism contract from the other
// direction: push threads are real concurrency, and the
// interference charge derives from the measured apply work (bytes moved),
// so neither application time nor daemon work may depend on the thread
// count. The old modeled engine divided the charge by PT; this guards
// against that reappearing.
func TestPushThreadsInvariant(t *testing.T) {
	runWith := func(procs int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		res, err := runPT(Config{
			Manager:      standardMix(t, wl),
			Workload:     wl,
			Model:        &model.Waterfall{Pct: 50},
			OpsPerWindow: 5000,
			Windows:      5,
			SampleRate:   20,
		}, procs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := runWith(1)
	eight := runWith(8)
	if eight.AppNs != one.AppNs {
		t.Fatalf("app time depends on push threads: %v (PT8) vs %v (PT1)", eight.AppNs, one.AppNs)
	}
	if eight.DaemonNs != one.DaemonNs {
		t.Fatalf("daemon work depends on push threads: %v (PT8) vs %v (PT1)", eight.DaemonNs, one.DaemonNs)
	}
	if one.DaemonNs == 0 {
		t.Fatal("expected nonzero daemon work under Waterfall placement")
	}
}

// TestPrefetchPushThreadsIdentical: a prefetch moves its region through
// the apply engine like a planned move, so a run that prefetches is
// identical at every push-thread count, PT 1 included.
func TestPrefetchPushThreadsIdentical(t *testing.T) {
	runWith := func(procs int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		res, err := runPT(Config{
			Manager:                standardMix(t, wl),
			Workload:               wl,
			Model:                  &model.Analytical{Alpha: 0.1, ModelName: "AM-TCO"},
			OpsPerWindow:           5000,
			Windows:                6,
			SampleRate:             20,
			PrefetchFaultThreshold: 8,
		}, procs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := runWith(1)
	if base.Prefetches == 0 {
		t.Fatal("prefetcher never fired; the push-thread pin is vacuous")
	}
	for _, procs := range []int{2, 8} {
		if got := runWith(procs); !reflect.DeepEqual(got, base) {
			t.Fatalf("GOMAXPROCS=%d Result differs from GOMAXPROCS=1 under prefetch", procs)
		}
	}
}
