package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/workload"
)

// splitSteppers build the run shapes the split must not change: no model
// at all, both model families, and the one feature that migrates from
// inside the access half — each at its own push-thread count.
func splitSteppers(t *testing.T) map[string]func(rec obs.Recorder) (*Stepper, error) {
	base := func(mdl func() model.Model, prefetch, threads int) func(obs.Recorder) (*Stepper, error) {
		return func(rec obs.Recorder) (*Stepper, error) {
			wl := workload.Memcached(workload.DriverYCSB, 1024, 8*mem.RegionPages, 1)
			cfg := Config{
				Manager:                standardMix(t, wl),
				Workload:               wl,
				OpsPerWindow:           4000,
				SampleRate:             20,
				PrefetchFaultThreshold: prefetch,
				Recorder:               rec,
			}
			if mdl != nil {
				cfg.Model = mdl()
			}
			s, err := NewStepper(cfg)
			if err == nil {
				s.scratch = make([]mem.MigrationScratch, threads)
			}
			return s, err
		}
	}
	return map[string]func(obs.Recorder) (*Stepper, error){
		"baseline":    base(nil, 0, 2),
		"waterfall":   base(func() model.Model { return &model.Waterfall{Pct: 50} }, 0, 8),
		"am-tco":      base(func() model.Model { return &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"} }, 0, 2),
		"am-prefetch": base(func() model.Model { return &model.Analytical{Alpha: 0.1, ModelName: "AM-TCO"} }, 8, 1),
	}
}

// TestStepSplitIdentical: K × Step and K × (StepAccess on another
// goroutine, StepControl on this one) are the same run — result, window
// snapshots and move events DeepEqual. This is the hand-over the daemon's
// tick performs.
func TestStepSplitIdentical(t *testing.T) {
	const windows = 5
	for name, mk := range splitSteppers(t) {
		t.Run(name, func(t *testing.T) {
			var whole, halves obs.Mem
			a, err := mk(&whole)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mk(&halves)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < windows; w++ {
				if err := a.Step(); err != nil {
					t.Fatal(err)
				}
				accessed := make(chan error, 1)
				go func() { accessed <- b.StepAccess() }()
				if err := <-accessed; err != nil {
					t.Fatal(err)
				}
				if err := b.StepControl(); err != nil {
					t.Fatal(err)
				}
			}
			ra, rb := a.Result(), b.Result()
			if ra.Ops != windows*4000 || len(ra.Windows) != windows {
				t.Fatalf("Step ran %d ops in %d windows", ra.Ops, len(ra.Windows))
			}
			if name == "am-prefetch" && ra.Prefetches == 0 {
				t.Fatal("the prefetch config never prefetched: the access half's migrations went untested")
			}
			if !reflect.DeepEqual(ra, rb) {
				t.Errorf("results differ: Step %+v, halves %+v", ra, rb)
			}
			if !reflect.DeepEqual(whole.Windows, halves.Windows) {
				t.Error("window snapshots differ")
			}
			if !reflect.DeepEqual(whole.Moves, halves.Moves) {
				t.Errorf("move events differ: %d vs %d", len(whole.Moves), len(halves.Moves))
			}
			if name != "baseline" && len(whole.Moves) == 0 {
				t.Error("no move events recorded: nothing compared")
			}
		})
	}
}

// failingWorkload serves the wrapped workload until the given op, then
// hands the stepper a page outside its manager.
type failingWorkload struct {
	workload.Workload
	failAt, ops int
}

func (f *failingWorkload) NextOp(buf []workload.Access) []workload.Access {
	f.ops++
	if f.ops == f.failAt {
		return append(buf, workload.Access{Page: mem.PageID(f.NumPages() + 7)})
	}
	return f.Workload.NextOp(buf)
}

// TestStepSplitMisuse: the halves only run in order, and a failed half
// ends the stepper — no sequence of calls counts a window's ops twice.
func TestStepSplitMisuse(t *testing.T) {
	wantErr := func(err error, sub string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), sub) {
			t.Fatalf("err = %v, want one mentioning %q", err, sub)
		}
	}
	st := baselineStepper(t, 1000)
	wantErr(st.StepControl(), "without a preceding StepAccess")
	if st.Result().Ops != 0 || st.Windows() != 0 {
		t.Fatalf("a refused StepControl ran: %d ops, %d windows", st.Result().Ops, st.Windows())
	}

	st = baselineStepper(t, 1000)
	if err := st.StepAccess(); err != nil {
		t.Fatal(err)
	}
	wantErr(st.StepAccess(), "twice in a row")
	// A refused call changes nothing: the open window still closes.
	if err := st.StepControl(); err != nil {
		t.Fatal(err)
	}
	if res := st.Result(); res.Ops != 1000 || len(res.Windows) != 1 {
		t.Fatalf("%d ops in %d windows after one access half, a refused one and a control half; want 1000 in 1", res.Ops, len(res.Windows))
	}

	wl := &failingWorkload{Workload: smallKV(t), failAt: 1500}
	st, err := NewStepper(Config{Manager: standardMix(t, wl), Workload: wl, OpsPerWindow: 1000, SampleRate: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Step(); err != nil {
		t.Fatal(err)
	}
	err = st.StepAccess()
	if !errors.Is(err, mem.ErrBadPage) {
		t.Fatalf("StepAccess over a bad page: %v, want mem.ErrBadPage", err)
	}
	wantErr(err, "window 1 op 499")
	for _, again := range []func() error{st.StepAccess, st.StepControl, st.Step} {
		wantErr(again(), "failed in window 1")
	}
	if res := st.Result(); res.Ops != 1000 || len(res.Windows) != 1 {
		t.Fatalf("partial result: %d ops, %d windows; want the one whole window", res.Ops, len(res.Windows))
	}
}
