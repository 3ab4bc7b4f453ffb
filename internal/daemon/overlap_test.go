// The tick's overlap, tested from both sides: that running every tenant's
// access half at once changes nothing a serial loop would produce
// (equivalence under real overlap), and that a tenant which errors or
// panics in either half is quarantined without touching its neighbours
// (fault containment).
package daemon

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/sim"
	"tierscape/internal/telemetry"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

const (
	ovRegions      = 8
	ovWindows      = 4
	ovOpsPerWindow = 3000
)

// deterministicOnly forwards a recorder's snapshot and move channels and
// drops the wall-clock one, which no two runs share.
type deterministicOnly struct{ obs.Recorder }

func (deterministicOnly) RecordRuntime(obs.WindowRuntime) {}

// overlapTenants builds the benchmark's daemon_multi shape at test size:
// a drifting read-mostly cache on AM at α 0.3, a 50 %-update store on
// Waterfall, a scientific kernel on AM-perf and a 4 KB-value cache on the
// TMO baseline — four different access loops, four different control
// loops — all recording into rec.
func overlapTenants(t *testing.T, rec obs.Recorder) (names []string, cfgs []sim.Config) {
	t.Helper()
	const pages = ovRegions * mem.RegionPages
	const ct2 = mem.TierID(3) // DRAM, NVMM, CT-1, CT-2
	ycsbA, err := workload.NewYCSB('A', pages*mem.PageSize*7/8/1024, 1024, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []struct {
		name string
		wl   workload.Workload
		mdl  model.Model
	}{
		{"memcached-ycsb", workload.Memcached(workload.DriverYCSB, 1024, pages, 11), &model.Analytical{Alpha: 0.3}},
		{"ycsb-a", ycsbA, &model.Waterfall{Pct: 25}},
		{"xsbench", workload.NewXSBench(pages, 13), &model.Analytical{Alpha: 0.7, ModelName: "AM-perf"}},
		{"memcached-memtier-4k", workload.Memcached(workload.DriverMemtier, 4096, pages, 14), model.TMO(ct2, 25)},
	} {
		names = append(names, tn.name)
		cfgs = append(cfgs, sim.Config{
			Manager:      eqManager(t, tn.wl.NumPages(), tn.wl.Content()),
			Workload:     tn.wl,
			Model:        tn.mdl,
			OpsPerWindow: ovOpsPerWindow,
			SampleRate:   20,
			Recorder:     rec,
		})
	}
	return names, cfgs
}

// overlapOutput is everything the equivalence compares.
type overlapOutput struct {
	results []*sim.Result
	jsonl   []byte
	prom    string
}

// overlapRun drives the four tenants for ovWindows windows — through a
// daemon, or with a plain serial loop over the same steppers — with one
// shared Live and one shared JSONL stream behind them, so recorder order
// across tenants is part of what is compared.
func overlapRun(t *testing.T, viaDaemon bool) overlapOutput {
	t.Helper()
	live := obs.NewLive()
	var jsonl bytes.Buffer
	stream := obs.NewStream(&jsonl)
	names, cfgs := overlapTenants(t, deterministicOnly{obs.Tee(live, stream)})

	var out overlapOutput
	if viaDaemon {
		d, clk := newTestDaemon(t, DefaultConfig(), nil)
		for i, cfg := range cfgs {
			if err := d.Attach(names[i], cfg); err != nil {
				t.Fatal(err)
			}
		}
		if got := clk.StepN(ovWindows); got != ovWindows {
			t.Fatalf("clock delivered %d/%d ticks", got, ovWindows)
		}
		if err := d.Barrier(); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			res, err := d.Detach(name)
			if err != nil {
				t.Fatal(err)
			}
			out.results = append(out.results, res)
		}
	} else {
		var steppers []*sim.Stepper
		for _, cfg := range cfgs {
			st, err := sim.NewStepper(cfg)
			if err != nil {
				t.Fatal(err)
			}
			steppers = append(steppers, st)
		}
		for w := 0; w < ovWindows; w++ {
			for _, st := range steppers {
				if err := st.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, st := range steppers {
			out.results = append(out.results, st.Result())
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := live.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out.jsonl, out.prom = jsonl.Bytes(), prom.String()
	return out
}

// TestDaemonOverlapEquivalence: with four heterogeneous tenants' access
// halves genuinely running at once, the daemon's per-tenant results, the
// shared JSONL stream and the shared Live's Prometheus text are
// byte-identical to a serial loop over the same steppers — on one P
// (goroutines interleave only at yields), two, and more
// Ps than tenants.
func TestDaemonOverlapEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := overlapRun(t, false)
	moves := 0
	for i, res := range want.results {
		if len(res.Windows) != ovWindows || res.Ops != ovWindows*ovOpsPerWindow {
			t.Fatalf("serial tenant %d: %d windows, %d ops", i, len(res.Windows), res.Ops)
		}
		moves += res.TotalMoves()
	}
	if moves == 0 || !strings.Contains(want.prom, "tierscape_windows_total 16") {
		t.Fatalf("serial reference is vacuous: %d moves", moves)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := overlapRun(t, true)
		for i := range want.results {
			if !reflect.DeepEqual(got.results[i], want.results[i]) {
				t.Errorf("GOMAXPROCS=%d: tenant %d's result differs from the serial loop's", procs, i)
			}
		}
		if !bytes.Equal(got.jsonl, want.jsonl) {
			t.Errorf("GOMAXPROCS=%d: JSONL stream is not byte-identical to the serial loop's", procs)
		}
		if got.prom != want.prom {
			t.Errorf("GOMAXPROCS=%d: Prometheus text is not byte-identical to the serial loop's", procs)
		}
	}
}

// faultyWorkload is a workload double: the wrapped workload until op
// failOp of window failWindow (both from 0), then an error (a page outside
// the manager, which mem.Access refuses) or a panic.
type faultyWorkload struct {
	workload.Workload
	failWindow, failOp int
	panics             bool
	ops                int
}

func (f *faultyWorkload) NextOp(buf []workload.Access) []workload.Access {
	at := f.failWindow*ovOpsPerWindow + f.failOp
	f.ops++
	if f.ops-1 == at {
		if f.panics {
			panic("faultyWorkload: boom")
		}
		return append(buf, workload.Access{Page: mem.PageID(f.NumPages())})
	}
	return f.Workload.NextOp(buf)
}

// panickyModel is a model double that panics in its Nth Recommend — in
// the control half, on the daemon's loop goroutine.
type panickyModel struct {
	model.Model
	failWindow, calls int
}

func (p *panickyModel) Recommend(m *mem.Manager, prof telemetry.Profile) model.Recommendation {
	p.calls++
	if p.calls-1 == p.failWindow {
		panic("panickyModel: boom")
	}
	return p.Model.Recommend(m, prof)
}

// armedSource is a content source double that panics once armed: the next
// page a push thread regenerates takes the thread down.
type armedSource struct {
	corpus.Source
	armed bool
}

func (a *armedSource) Fill(pageIdx uint64, buf []byte) {
	if a.armed {
		panic("armedSource: boom")
	}
	a.Source.Fill(pageIdx, buf)
}

// armingModel arms src once its Nth Recommend has returned — after the
// solve, which samples page contents itself, and before that window's
// apply starts its push threads.
type armingModel struct {
	model.Model
	src               *armedSource
	failWindow, calls int
}

func (a *armingModel) Recommend(m *mem.Manager, prof telemetry.Profile) model.Recommendation {
	rec := a.Model.Recommend(m, prof)
	a.calls++
	a.src.armed = a.calls-1 == a.failWindow
	return rec
}

// TestDaemonQuarantine: a tenant that errors or panics at op N of window
// K — in the access half, on its own goroutine, in the control half, on
// the loop's, or on one of the push threads its apply starts — is
// quarantined exactly like an errored one: its error
// names it, shows in Status, comes back from Detach with the windows that
// did complete, and later ticks skip it; the daemon keeps serving; and its
// neighbours, attached before and after it, finish byte-identical to
// their solo runs.
func TestDaemonQuarantine(t *testing.T) {
	const failWindow, failOp, ticks = 2, 1234, 5
	healthy := func(seed uint64, rec obs.Recorder) sim.Config {
		wl := workload.Memcached(workload.DriverYCSB, 1024, ovRegions*mem.RegionPages, seed)
		return sim.Config{
			Manager:      eqManager(t, wl.NumPages(), wl.Content()),
			Workload:     wl,
			Model:        &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"},
			OpsPerWindow: ovOpsPerWindow,
			Windows:      ticks,
			SampleRate:   20,
			Recorder:     rec,
		}
	}
	var soloA, soloB obs.Mem
	wantA, err := sim.Run(healthy(21, &soloA))
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := sim.Run(healthy(22, &soloB))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		sabotage func(cfg *sim.Config)
		wantOps  int64 // the broken tenant's Result.Ops: whole access halves
		wantErr  []string
	}{
		{"access-error", func(cfg *sim.Config) {
			cfg.Workload = &faultyWorkload{Workload: cfg.Workload, failWindow: failWindow, failOp: failOp}
		}, failWindow * ovOpsPerWindow, []string{fmt.Sprintf("window %d op %d", failWindow, failOp), mem.ErrBadPage.Error()}},
		{"access-panic", func(cfg *sim.Config) {
			cfg.Workload = &faultyWorkload{Workload: cfg.Workload, failWindow: failWindow, failOp: failOp, panics: true}
		}, failWindow * ovOpsPerWindow, []string{`workload "broken" panicked in its access phase`, "faultyWorkload: boom", "faultyWorkload).NextOp"}},
		{"control-panic", func(cfg *sim.Config) {
			cfg.Model = &panickyModel{Model: cfg.Model, failWindow: failWindow}
		}, (failWindow + 1) * ovOpsPerWindow, []string{`workload "broken" panicked in its control phase`, "panickyModel: boom", "panickyModel).Recommend"}},
		{"push-thread-panic", func(cfg *sim.Config) {
			src := &armedSource{Source: corpus.NewGenerator(cfg.Workload.Content(), 99)}
			m, err := mem.NewManager(mem.Config{
				NumPages:        cfg.Workload.NumPages(),
				Content:         src,
				ByteTiers:       []media.Kind{media.NVMM},
				CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Manager = m
			// Waterfall demotes into the compressed tiers every window.
			cfg.Model = &armingModel{Model: &model.Waterfall{Pct: 50}, src: src, failWindow: failWindow}
		}, (failWindow + 1) * ovOpsPerWindow, []string{fmt.Sprintf("sim: window %d migration: sim: push thread panicked on move", failWindow), "armedSource: boom", "armedSource).Fill"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var capA, capB obs.Mem
			broken := healthy(23, nil)
			tc.sabotage(&broken)
			d, clk := newTestDaemon(t, DefaultConfig(), nil)
			for _, at := range []struct {
				name string
				cfg  sim.Config
			}{{"a", healthy(21, &capA)}, {"broken", broken}, {"b", healthy(22, &capB)}} {
				if err := d.Attach(at.name, at.cfg); err != nil {
					t.Fatal(err)
				}
			}
			if got := clk.StepN(ticks); got != ticks {
				t.Fatalf("clock delivered %d/%d ticks", got, ticks)
			}
			if err := d.Barrier(); err != nil {
				t.Fatalf("the daemon did not survive its tenant: %v", err)
			}

			st, err := d.Status()
			if err != nil {
				t.Fatal(err)
			}
			if st.Ticks != ticks || len(st.Workloads) != 3 {
				t.Fatalf("status: %+v", st)
			}
			for _, ws := range st.Workloads {
				switch ws.Name {
				case "broken":
					if ws.Windows != failWindow {
						t.Errorf("broken tenant ran %d windows, want %d: it was stepped after it failed", ws.Windows, failWindow)
					}
					for _, sub := range tc.wantErr {
						if !strings.Contains(ws.Err, sub) {
							t.Errorf("Status error %q does not mention %q", ws.Err, sub)
						}
					}
				default:
					if ws.Windows != ticks || ws.Err != "" {
						t.Errorf("healthy tenant %s: %d windows, err %q", ws.Name, ws.Windows, ws.Err)
					}
				}
			}

			res, err := d.Detach("broken")
			if err == nil || res == nil || err.Error() != st.Workloads[1].Err {
				t.Fatalf("Detach(broken) = %v, %v; want the partial result and the error Status showed", res, err)
			}
			if len(res.Windows) != failWindow || res.Ops != tc.wantOps {
				t.Errorf("partial result: %d windows, %d ops; want %d, %d", len(res.Windows), res.Ops, failWindow, tc.wantOps)
			}
			for _, n := range []struct {
				name      string
				want      *sim.Result
				cap, solo *obs.Mem
			}{{"a", wantA, &capA, &soloA}, {"b", wantB, &capB, &soloB}} {
				got, err := d.Detach(n.name)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, n.want) {
					t.Errorf("tenant %s's result differs from its solo run", n.name)
				}
				if !reflect.DeepEqual(n.cap.Windows, n.solo.Windows) || !reflect.DeepEqual(n.cap.Moves, n.solo.Moves) {
					t.Errorf("tenant %s's snapshots or move events differ from its solo run", n.name)
				}
			}
		})
	}
}

// TestAttachRejectsSharedManager: two attached workloads over one
// manager would have their access halves race on its page table, so the
// second Attach is refused — until the first owner detaches.
func TestAttachRejectsSharedManager(t *testing.T) {
	d, clk := newTestDaemon(t, DefaultConfig(), nil)
	first, second := testSimConfig(t), testSimConfig(t)
	second.Manager = first.Manager
	if err := d.Attach("first", first); err != nil {
		t.Fatal(err)
	}
	err := d.Attach("second", second)
	if err == nil || !strings.Contains(err.Error(), `"second"`) || !strings.Contains(err.Error(), `already owned by attached workload "first"`) {
		t.Fatalf("Attach over an owned manager: %v", err)
	}
	clk.StepN(2)
	st, err := d.Status()
	if err != nil || len(st.Workloads) != 1 || st.Workloads[0].Windows != 2 {
		t.Fatalf("after the refused attach: %+v, %v", st, err)
	}
	if _, err := d.Detach("first"); err != nil {
		t.Fatal(err)
	}
	if err := d.Attach("second", second); err != nil {
		t.Fatalf("Attach after the owner detached: %v", err)
	}
}
