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
	"unsafe"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/sim"
	"tierscape/internal/telemetry"
	"tierscape/internal/workload"
	"tierscape/internal/zpool"
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
	ycsbA, err := workload.NewYCSB('A', pages*mem.PageSize*7/8/1024, 1024, 12)
	if err != nil {
		t.Fatal(err)
	}
	tmo, err := model.TMOStar.New([]media.Kind{media.NVMM}, []ztier.Config{ztier.CT1(), ztier.CT2()}, 25)
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
		{"memcached-memtier-4k", workload.Memcached(workload.DriverMemtier, 4096, pages, 14), tmo},
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

// The quarantine tests' broken tenant fails at op qFailOp of window
// qFailWindow; the daemon ticks qTicks times.
const qFailWindow, qFailOp, qTicks = 2, 1234, 5

// quarantineTenant is a healthy tenant of the quarantine tests.
func quarantineTenant(t *testing.T, seed uint64, rec obs.Recorder) sim.Config {
	wl := workload.Memcached(workload.DriverYCSB, 1024, ovRegions*mem.RegionPages, seed)
	return sim.Config{
		Manager:      eqManager(t, wl.NumPages(), wl.Content()),
		Workload:     wl,
		Model:        &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"},
		OpsPerWindow: ovOpsPerWindow,
		Windows:      qTicks,
		SampleRate:   20,
		Recorder:     rec,
	}
}

// quarantineNeighbours are the two healthy tenants a broken one is
// attached between, with what each produces running alone.
type quarantineNeighbours struct {
	want [2]*sim.Result
	solo [2]obs.Mem
}

func newQuarantineNeighbours(t *testing.T) *quarantineNeighbours {
	n := new(quarantineNeighbours)
	for i := range n.want {
		var err error
		if n.want[i], err = sim.Run(quarantineTenant(t, uint64(21+i), &n.solo[i])); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// check attaches a neighbour, broken and the other neighbour, ticks the
// daemon qTicks times and checks that broken alone is quarantined: its
// error mentions each of wantErr, shows in Status and comes back from
// Detach with the windows that did complete (wantOps ops); later ticks
// skip it; the daemon keeps serving; and the neighbours finish
// byte-identical to their solo runs. It returns broken's error.
func (n *quarantineNeighbours) check(t *testing.T, broken sim.Config, wantOps int64, wantErr ...string) string {
	t.Helper()
	var got [2]obs.Mem
	d, clk := newTestDaemon(t, DefaultConfig(), nil)
	for _, at := range []struct {
		name string
		cfg  sim.Config
	}{{"a", quarantineTenant(t, 21, &got[0])}, {"broken", broken}, {"b", quarantineTenant(t, 22, &got[1])}} {
		if err := d.Attach(at.name, at.cfg); err != nil {
			t.Fatal(err)
		}
	}
	if steps := clk.StepN(qTicks); steps != qTicks {
		t.Fatalf("clock delivered %d/%d ticks", steps, qTicks)
	}
	if err := d.Barrier(); err != nil {
		t.Fatalf("the daemon did not survive its tenant: %v", err)
	}
	st, err := d.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ticks != qTicks || len(st.Workloads) != 3 {
		t.Fatalf("status: %+v", st)
	}
	for _, ws := range st.Workloads {
		switch ws.Name {
		case "broken":
			if ws.Windows != qFailWindow {
				t.Errorf("broken tenant ran %d windows, want %d: it was stepped after it failed", ws.Windows, qFailWindow)
			}
			for _, sub := range wantErr {
				if !strings.Contains(ws.Err, sub) {
					t.Errorf("Status error %q does not mention %q", ws.Err, sub)
				}
			}
		default:
			if ws.Windows != qTicks || ws.Err != "" {
				t.Errorf("healthy tenant %s: %d windows, err %q", ws.Name, ws.Windows, ws.Err)
			}
		}
	}

	res, err := d.Detach("broken")
	if err == nil || res == nil || err.Error() != st.Workloads[1].Err {
		t.Fatalf("Detach(broken) = %v, %v; want the partial result and the error Status showed", res, err)
	}
	if len(res.Windows) != qFailWindow || res.Ops != wantOps {
		t.Errorf("partial result: %d windows, %d ops; want %d, %d", len(res.Windows), res.Ops, qFailWindow, wantOps)
	}
	for i, name := range []string{"a", "b"} {
		res, err := d.Detach(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, n.want[i]) {
			t.Errorf("tenant %s's result differs from its solo run", name)
		}
		if !reflect.DeepEqual(got[i].Windows, n.solo[i].Windows) || !reflect.DeepEqual(got[i].Moves, n.solo[i].Moves) {
			t.Errorf("tenant %s's snapshots or move events differ from its solo run", name)
		}
	}
	return st.Workloads[1].Err
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
	neighbours := newQuarantineNeighbours(t)
	for _, tc := range []struct {
		name     string
		sabotage func(cfg *sim.Config)
		wantOps  int64 // the broken tenant's Result.Ops: whole access halves
		wantErr  []string
	}{
		{"access-error", func(cfg *sim.Config) {
			cfg.Workload = &faultyWorkload{Workload: cfg.Workload, failWindow: qFailWindow, failOp: qFailOp}
		}, qFailWindow * ovOpsPerWindow, []string{fmt.Sprintf("window %d op %d", qFailWindow, qFailOp), mem.ErrBadPage.Error()}},
		{"access-panic", func(cfg *sim.Config) {
			cfg.Workload = &faultyWorkload{Workload: cfg.Workload, failWindow: qFailWindow, failOp: qFailOp, panics: true}
		}, qFailWindow * ovOpsPerWindow, []string{`workload "broken" panicked in its access phase`, "faultyWorkload: boom", "faultyWorkload).NextOp"}},
		{"control-panic", func(cfg *sim.Config) {
			cfg.Model = &panickyModel{Model: cfg.Model, failWindow: qFailWindow}
		}, (qFailWindow + 1) * ovOpsPerWindow, []string{`workload "broken" panicked in its control phase`, "panickyModel: boom", "panickyModel).Recommend"}},
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
			cfg.Model = &armingModel{Model: &model.Waterfall{Pct: 50}, src: src, failWindow: qFailWindow}
		}, (qFailWindow + 1) * ovOpsPerWindow, []string{fmt.Sprintf("sim: window %d migration: sim: push thread panicked on move", qFailWindow), "armedSource: boom", "armedSource).Fill"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			broken := quarantineTenant(t, 23, nil)
			tc.sabotage(&broken)
			neighbours.check(t, broken, tc.wantOps, tc.wantErr...)
		})
	}
}

// corruptingModel sends every region to CT-1 and, at window failWindow,
// on to CT-2 — having first corrupted, in every region, the objects of two
// pages of span 2, a span that is not the region's first: each page's
// entry names the other's intact object, which its checksum refuses. The
// move out of CT-1 reads them there, in the middle of a region's move.
type corruptingModel struct {
	t                 *testing.T
	failWindow, calls int
}

func (c *corruptingModel) Name() string { return "corrupting" }

func (c *corruptingModel) Recommend(m *mem.Manager, _ telemetry.Profile) model.Recommendation {
	dest := mem.TierID(2) // DRAM, NVMM, CT-1, CT-2
	if c.calls == c.failWindow {
		dest = 3
		corrupted := 0
		for r := int64(0); r < m.NumRegions(); r++ {
			if misdirectInSpan(m, mem.RegionID(r), 2, 2) {
				corrupted++
			}
		}
		if corrupted == 0 {
			c.t.Error("no region has two pages of span 2 with objects in CT-1")
		}
	}
	c.calls++
	rec := model.Recommendation{Dest: make([]mem.TierID, m.NumRegions())}
	for r := range rec.Dest {
		rec.Dest[r] = dest
	}
	return rec
}

// misdirectInSpan swaps the pool handles of the first two pages of span
// span of region r that hold a pool object in tier, if it has two: each
// entry then names the other page's object, as a pool handing out a stale
// handle would leave it. Nothing in the product writes a page-table entry
// from outside the manager, so the test reaches in by reflection, checking
// the layout it relies on first. It reports whether it found the two
// pages.
func misdirectInSpan(m *mem.Manager, r mem.RegionID, span int, tier mem.TierID) bool {
	v := reflect.ValueOf(m).Elem()
	ptes, loc := v.FieldByName("ptes"), v.FieldByName("loc") // entries, and each page's tier
	first := int(r)*mem.RegionPages + span*mem.SpanPages
	var held []*zpool.Handle
	for p := first; p < min(first+mem.SpanPages, ptes.Len()) && len(held) < 2; p++ {
		e := ptes.Index(p)
		h := e.FieldByName("handle")
		pool := h.FieldByName("pool")
		if pool.Type() != reflect.TypeOf(zpool.Handle(0)) {
			panic("misdirectInSpan: the page-table entry's pool handle moved")
		}
		if mem.TierID(loc.Index(p).Uint()) == tier && !h.FieldByName("sameFilled").Bool() {
			held = append(held, (*zpool.Handle)(unsafe.Pointer(pool.UnsafeAddr())))
		}
	}
	if len(held) < 2 {
		return false
	}
	*held[0], *held[1] = *held[1], *held[0]
	return true
}

// TestCorruptInFlightQuarantine: a tenant whose compressed objects are
// corrupted in flight — ztier.ErrCorruptObject raised by the move of a
// region, in span 2 — is quarantined alone, at GOMAXPROCS 1, 2 and 8: the
// error names a page of span 2, and the tenants beside it keep ticking to
// their solo runs' bytes.
func TestCorruptInFlightQuarantine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	neighbours := newQuarantineNeighbours(t)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		broken := quarantineTenant(t, 23, nil)
		broken.Model = &corruptingModel{t: t, failWindow: qFailWindow}
		msg := neighbours.check(t, broken, (qFailWindow+1)*ovOpsPerWindow,
			fmt.Sprintf("sim: window %d migration: mem: migrating page ", qFailWindow), ztier.ErrCorruptObject.Error())
		var page int
		if _, err := fmt.Sscanf(msg[strings.Index(msg, "migrating page "):], "migrating page %d:", &page); err != nil {
			t.Fatalf("GOMAXPROCS=%d: no page in %q: %v", procs, msg, err)
		}
		if span := page % mem.RegionPages / mem.SpanPages; span != 2 {
			t.Errorf("GOMAXPROCS=%d: corruption surfaced at page %d, in span %d, want span 2", procs, page, span)
		}
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
