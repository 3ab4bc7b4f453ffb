package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"tierscape"
	"tierscape/internal/corpus"
	"tierscape/internal/daemon"
	"tierscape/internal/experiments"
	"tierscape/internal/mem"
	"tierscape/internal/obs"
	"tierscape/internal/sim"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// A workload runs in rounds. One round is a fixed amount of simulated
// work from a cold start — construct, then step — so a round's modeled
// results and snapshot digest are functions of its seed alone, and
// host-time metrics are medians over however many rounds fit into
// -seconds (main.go). Sizes were calibrated so a full-scale round takes
// 2–5 s on a 2-vCPU Xeon @ 2.1 GHz.

// sizing is the per-scale size of every workload's round.
type sizing struct {
	kvRegions, kvWindows, kvOps        int
	churnRegionPages, churnOpsPerPhase int64
	churnWindows, churnOps             int
	fig                                experiments.Scale
	daemonRegions, daemonTicks         int
	daemonOps                          int
	// setupOnly ends a round once its set-up is timed: a run takes extra
	// set-up samples this way, so setup_s is a median over dozens.
	setupOnly bool
	// Layer probes: pages and manager regions per pass, and how long a
	// probe keeps taking passes once it has probeMinPasses.
	probePages, probeRegions, probeMinPasses int
	probeBudget                              time.Duration
}

var scales = map[string]sizing{
	"full": {
		kvRegions: 128, kvWindows: 32, kvOps: 250000,
		churnRegionPages: 4096, churnOpsPerPhase: 30000, churnWindows: 24, churnOps: 10000,
		// The program's own -scale small: a default-scale Fig 7 is one
		// 21 s sample per run; at small scale the same 56 jobs and the
		// same rMat-dominated profile repeat four times in a run.
		fig:           experiments.SmallScale(),
		daemonRegions: 32, daemonTicks: 20, daemonOps: 60000,
		probePages: 128, probeRegions: 2, probeMinPasses: 3, probeBudget: 60 * time.Millisecond,
	},
	"smoke": {
		kvRegions: 8, kvWindows: 6, kvOps: 20000,
		churnRegionPages: 1024, churnOpsPerPhase: 3000, churnWindows: 6, churnOps: 1000,
		fig: experiments.Scale{
			KVPages: 2 * mem.RegionPages, GraphVertices: 1 << 12, XSPages: 2 * mem.RegionPages,
			SagePages: 2 * mem.RegionPages, OpsPerWindow: 1000, Windows: 2, SampleRate: 20,
		},
		daemonRegions: 4, daemonTicks: 6, daemonOps: 4000,
		probePages: 16, probeRegions: 1, probeMinPasses: 1, probeBudget: time.Millisecond,
	},
}

// labeledTier names a compressed tier the way the paper does, for metric
// names (mem.fault_ns.CT-2, ztier.C7.store_ns_per_page).
type labeledTier struct {
	label string
	cfg   ztier.Config
}

// tierSet is a tier lineup beyond DRAM.
type tierSet struct {
	byteTiers  []tierscape.MediaKind
	compressed []labeledTier
}

func standardMix() tierSet {
	return tierSet{
		byteTiers:  []tierscape.MediaKind{tierscape.NVMM},
		compressed: []labeledTier{{"CT-1", ztier.CT1()}, {"CT-2", ztier.CT2()}},
	}
}

func spectrum() tierSet {
	ts := tierSet{}
	for _, k := range []int{1, 2, 4, 7, 12} {
		ts.compressed = append(ts.compressed, labeledTier{"C" + strconv.Itoa(k), ztier.Characterization(k)})
	}
	return ts
}

func (ts tierSet) configs() []tierscape.TierConfig {
	out := make([]tierscape.TierConfig, len(ts.compressed))
	for i, t := range ts.compressed {
		out[i] = t.cfg
	}
	return out
}

// sameCodecPair returns the first two compressed tiers that share a
// codec (C2 and C4 on the spectrum; none on the standard mix).
func (ts tierSet) sameCodecPair() (from, to mem.TierID, ok bool) {
	for i := range ts.compressed {
		for j := i + 1; j < len(ts.compressed); j++ {
			if ts.compressed[i].cfg.Codec == ts.compressed[j].cfg.Codec {
				return ts.id(i), ts.id(j), true
			}
		}
	}
	return 0, 0, false
}

// id is compressed tier i's TierID: DRAM is 0, byte tiers follow, then
// the compressed tiers in order.
func (ts tierSet) id(i int) mem.TierID { return mem.TierID(1 + len(ts.byteTiers) + i) }

// memCounts are the placement counters summed over a run's window
// snapshots. They are modeled quantities: the same seed must give the
// same counts on every host.
type memCounts struct {
	Faults, Moved, Rejected, Skipped, TierFullMoves, Compacted int64
	DroppedMoves, Recommends, WarmHits, SolverFallbacks        int64
}

func (c *memCounts) addWindows(ws []obs.WindowSnapshot) {
	for i := range ws {
		w := &ws[i]
		c.Moved += int64(w.Moves)
		c.Rejected += int64(w.Rejected)
		c.Skipped += int64(w.Skipped)
		c.TierFullMoves += int64(w.TierFullMoves)
		c.Compacted += int64(w.CompactedPages)
		c.DroppedMoves += int64(w.DroppedPressure + w.DroppedCapacity + w.DroppedBudget)
		c.SolverFallbacks += int64(w.SolverFallbacks)
		c.Recommends++
		if w.WarmHit {
			c.WarmHits++
		}
	}
	if n := len(ws); n > 0 {
		c.Faults += ws[n-1].Faults // cumulative per run
	}
}

// checks counts what a run attempted — every Step, tick, command and
// assertion — and what of it failed: the JSON line's two counts.
type checks struct {
	attempted, failed int
	failures          []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		msg := fmt.Sprintf(format, args...)
		c.failures = append(c.failures, msg)
		fmt.Fprintln(os.Stderr, "bench: FAILED:", msg)
	}
}

func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.failures = append(c.failures, o.failures...)
}

// round is everything one round measured.
type round struct {
	checks
	setupS  float64
	use     usage
	ops     int64
	stepNs  []float64 // wall of each Step / daemon tick
	retMB   float64
	digest  string
	savings float64 // tco_savings_pct
	// modeledOps and modeledP999 are 0 where the workload exposes no
	// sim.Result (fig_sweep).
	modeledOps, modeledP999 float64
	counts                  memCounts

	// Traced rounds only.
	buildS   float64 // workload constructors
	attachNs []float64
	statusNs []float64
	scrapeNs []float64
	scrapeB  int64
	runs     []*runTrace
	vars     map[string]any // experiments' Live.Vars() after a traced sweep
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	return digest(b), err
}

// workloadDef is one named workload. why is the one line BENCHMARK.json
// carries; README.md has the long form.
type workloadDef struct {
	name string
	run  func(seed uint64, sz sizing, tr *tracer, parent int) (*round, error)
	// probeInputs describes the workload to the layer probes.
	probe func(seed uint64, sz sizing) probeInputs
}

var workloads = []workloadDef{
	{name: "kv_steady", run: runKVSteady, probe: func(seed uint64, sz sizing) probeInputs {
		wl := workload.Redis(int64(sz.kvRegions)*mem.RegionPages, seed)
		return probeInputs{tiers: standardMix(), profiles: []corpus.Profile{wl.Content()}, numPages: wl.NumPages()}
	}},
	{name: "spectrum_churn", run: runSpectrumChurn, probe: func(seed uint64, sz sizing) probeInputs {
		wl := workload.DefaultMasim(sz.churnRegionPages, sz.churnOpsPerPhase, seed)
		return probeInputs{tiers: spectrum(), profiles: []corpus.Profile{wl.Content()}, numPages: wl.NumPages()}
	}},
	{name: "fig_sweep", run: runFigSweep, probe: func(seed uint64, sz sizing) probeInputs {
		// The sweep takes no wrappers, so the probes draw their accesses
		// from the cell the modeled metric reads: Memcached/YCSB.
		wl := tierscape.MemcachedYCSB(sz.fig.KVPages, seed)
		in := probeInputs{tiers: standardMix(), profiles: []corpus.Profile{wl.Content()}, numPages: wl.NumPages()}
		var buf []workload.Access
		for len(in.accesses) < 1<<16 {
			buf = wl.NextOp(buf[:0])
			in.accesses = append(in.accesses, buf...)
		}
		return in
	}},
	{name: "daemon_multi", run: runDaemonMulti, probe: func(seed uint64, sz sizing) probeInputs {
		in := probeInputs{tiers: standardMix()}
		for _, t := range daemonTenants(seed, sz) {
			in.profiles = append(in.profiles, t.wl.Content())
			in.numPages = max(in.numPages, t.wl.NumPages())
		}
		return in
	}},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// batchSpec is a single-workload stepper run: kv_steady and
// spectrum_churn differ only in these values.
type batchSpec struct {
	name         string
	workload     func() tierscape.Workload
	tiers        tierSet
	model        func() tierscape.Model
	windows, ops int
	setupOnly    bool
}

func runKVSteady(seed uint64, sz sizing, tr *tracer, parent int) (*round, error) {
	return runBatch(batchSpec{
		name:     "kv_steady",
		workload: func() tierscape.Workload { return workload.Redis(int64(sz.kvRegions)*mem.RegionPages, seed) },
		tiers:    standardMix(),
		model:    tierscape.AMTCO,
		windows:  sz.kvWindows, ops: sz.kvOps, setupOnly: sz.setupOnly,
	}, seed, tr, parent)
}

func runSpectrumChurn(seed uint64, sz sizing, tr *tracer, parent int) (*round, error) {
	return runBatch(batchSpec{
		name: "spectrum_churn",
		workload: func() tierscape.Workload {
			return workload.DefaultMasim(sz.churnRegionPages, sz.churnOpsPerPhase, seed)
		},
		tiers:   spectrum(),
		model:   func() tierscape.Model { return tierscape.WaterfallModel(75) },
		windows: sz.churnWindows, ops: sz.churnOps, setupOnly: sz.setupOnly,
	}, seed, tr, parent)
}

// runBatch is one round of a stepper workload. With tr == nil it is the
// timed run: the program sees no recorder and no wrapper, and the only
// thing bench adds is a clock reading either side of Step.
func runBatch(b batchSpec, seed uint64, tr *tracer, parent int) (*round, error) {
	r := &round{stepNs: make([]float64, 0, b.windows)}
	t0 := time.Now()
	wl := b.workload()
	r.buildS = time.Since(t0).Seconds()
	rc := tierscape.RunConfig{
		Workload: wl, Tiers: b.tiers.configs(), ByteTiers: b.tiers.byteTiers, Model: b.model(),
		OpsPerWindow: b.ops, SampleRate: 50, Seed: seed,
	}
	var rt *runTrace
	if tr != nil {
		rt = tr.newRun(parent, b.name, wl, rc.Model, nil)
		rc.Workload, rc.Model, rc.Recorder = rt.workload(), rt.model(), rt.recorder()
		r.runs = []*runTrace{rt}
	}
	scfg, err := tierscape.SimConfig(rc)
	if err != nil {
		return nil, err
	}
	st, err := sim.NewStepper(scfg)
	if err != nil {
		return nil, err
	}
	r.setupS = time.Since(t0).Seconds()
	if b.setupOnly {
		return r, nil
	}

	m := startMeter()
	for w := 0; w < b.windows; w++ {
		s := time.Now()
		err := st.Step()
		e := time.Now()
		r.stepNs = append(r.stepNs, float64(e.Sub(s)))
		r.check(err == nil, "%s: step %d: %v", b.name, w, err)
		if err != nil {
			break
		}
		if rt != nil {
			if _, err := rt.endStep(s, e); err != nil {
				return nil, err
			}
		}
	}
	r.use = m.stop()

	res := st.Result()
	r.retMB = retainedHeapMB()
	r.ops = res.Ops
	r.check(res.Ops == int64(b.windows)*int64(b.ops), "%s: Result.Ops = %d, want %d", b.name, res.Ops, b.windows*b.ops)
	r.checkResidency(b.name, scfg.Manager)
	r.savings = res.SavingsPct()
	r.modeledOps = res.ThroughputOpsPerSec()
	r.modeledP999 = res.OpLat.Percentile(99.9) / 1e3
	r.counts.addWindows(res.Windows)
	if r.digest, err = digestJSON(res.Windows); err != nil {
		return nil, err
	}
	runtime.KeepAlive(res)
	return r, nil
}

func (r *round) checkResidency(name string, m *mem.Manager) {
	var sum int64
	for _, n := range m.TierPages() {
		sum += n
	}
	r.check(sum == m.NumPages(), "%s: tiers hold %d pages, manager has %d", name, sum, m.NumPages())
}

// tenant is one workload attached to the daemon.
type tenant struct {
	name string
	wl   tierscape.Workload
	mdl  tierscape.Model
}

// daemonTenants builds the four tenants: a drifting read-mostly cache on
// the warm solver, an update-heavy store on Waterfall, a scientific
// kernel with binary content on AM-perf, and a 4 KB-value cache on the
// single-tier TMO baseline.
func daemonTenants(seed uint64, sz sizing) []tenant {
	pages := int64(sz.daemonRegions) * mem.RegionPages
	ycsbA, err := tierscape.YCSBWorkload('A', pages, seed+1)
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return []tenant{
		{"memcached-ycsb", tierscape.MemcachedYCSB(pages, seed), tierscape.AMWarm(0.3, 0, 0)},
		{"ycsb-a", ycsbA, tierscape.WaterfallModel(25)},
		{"xsbench", tierscape.XSBenchWorkload(pages, seed+2), tierscape.AMPerf()},
		{"memcached-memtier-4k", tierscape.MemcachedMemtier(4096, pages, seed+3), tierscape.TMOBaseline(tierscape.StdCT2, 25)},
	}
}

// countingWriter is io.Discard that counts, for obs.scrape_bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// runDaemonMulti is one round of the service shape: a daemon on a fake
// clock, four tenants recording into one shared Live (as the CLI daemon
// always does), and after every tick a Status round trip and a
// Prometheus scrape. The tick, Status and scrape together are the step.
func runDaemonMulti(seed uint64, sz sizing, tr *tracer, parent int) (*round, error) {
	r := &round{stepNs: make([]float64, 0, sz.daemonTicks)}
	tiers := standardMix()
	t0 := time.Now()
	tenants := daemonTenants(seed, sz)
	r.buildS = time.Since(t0).Seconds()
	live := obs.NewLive()
	clk := daemon.NewFakeClock()
	d, err := daemon.New(daemon.DefaultConfig(), clk, live)
	if err != nil {
		return nil, err
	}
	defer d.Stop()
	managers := make([]*mem.Manager, len(tenants))
	for i, t := range tenants {
		rc := tierscape.RunConfig{
			Workload: t.wl, Tiers: tiers.configs(), ByteTiers: tiers.byteTiers, Model: t.mdl,
			OpsPerWindow: sz.daemonOps, SampleRate: 50, Seed: seed, Recorder: live,
		}
		if tr != nil {
			rt := tr.newRun(parent, t.name, t.wl, t.mdl, live)
			rc.Workload, rc.Model, rc.Recorder = rt.workload(), rt.model(), rt.recorder()
			r.runs = append(r.runs, rt)
		}
		scfg, err := tierscape.SimConfig(rc)
		if err != nil {
			return nil, err
		}
		managers[i] = scfg.Manager
		a0 := time.Now()
		err = d.Attach(t.name, scfg)
		r.attachNs = append(r.attachNs, float64(time.Since(a0)))
		r.check(err == nil, "daemon_multi: attach %s: %v", t.name, err)
		if err != nil {
			return r, nil
		}
	}
	r.setupS = time.Since(t0).Seconds()
	if sz.setupOnly {
		return r, nil
	}

	scraped := &countingWriter{}
	m := startMeter()
	for tick := 1; tick <= sz.daemonTicks; tick++ {
		s := time.Now()
		ok := clk.Step()
		err := d.Barrier()
		ticked := time.Now()
		st, serr := d.Status()
		statused := time.Now()
		perr := live.WritePrometheus(scraped)
		e := time.Now()
		r.stepNs = append(r.stepNs, float64(e.Sub(s)))
		good := ok && err == nil && serr == nil && perr == nil && st.Ticks == int64(tick)
		for _, ws := range st.Workloads {
			good = good && ws.Windows == tick && ws.Err == ""
		}
		r.check(good, "daemon_multi: tick %d: delivered=%v barrier=%v status=%v scrape=%v status=%+v", tick, ok, err, serr, perr, st)
		if !good {
			break
		}
		if tr != nil {
			key := fmt.Sprintf("daemon/%d", tick)
			id := tr.add(parent, "daemon.tick", key, s, ticked)
			tr.add(parent, "daemon.status", key, ticked, statused)
			tr.add(parent, "obs.scrape", key, statused, e)
			r.statusNs = append(r.statusNs, float64(statused.Sub(ticked)))
			r.scrapeNs = append(r.scrapeNs, float64(e.Sub(statused)))
			// Tenants step serially in attach order: each one's step
			// runs from the previous one's last recorder call to its own.
			prev := s
			for _, rt := range r.runs {
				rt.parent = id
				w, err := rt.endStep(prev, time.Time{})
				if err != nil {
					return nil, err
				}
				prev = w.stepEnd
			}
		}
	}
	r.use = m.stop()
	r.scrapeB = scraped.n / int64(len(r.stepNs))

	results := make([]*sim.Result, len(tenants))
	for i, t := range tenants {
		res, err := d.Detach(t.name)
		r.check(err == nil && res != nil, "daemon_multi: detach %s: %v", t.name, err)
		if res == nil {
			return r, nil
		}
		results[i] = res
	}
	r.retMB = retainedHeapMB()
	var windows [][]obs.WindowSnapshot
	for i, res := range results {
		r.ops += res.Ops
		r.check(res.Ops == int64(len(r.stepNs))*int64(sz.daemonOps), "daemon_multi: %s Result.Ops = %d", tenants[i].name, res.Ops)
		r.checkResidency(tenants[i].name, managers[i])
		r.savings += res.SavingsPct() / float64(len(results))
		r.modeledOps += res.ThroughputOpsPerSec() / float64(len(results))
		if p := res.OpLat.Percentile(99.9) / 1e3; p > r.modeledP999 {
			r.modeledP999 = p
		}
		r.counts.addWindows(res.Windows)
		windows = append(windows, res.Windows)
	}
	if r.digest, err = digestJSON(windows); err != nil {
		return nil, err
	}
	runtime.KeepAlive(results)
	runtime.KeepAlive(live)
	return r, nil
}

// figModels is how many placement models Fig 7 runs beside each
// workload's all-DRAM baseline.
const figModels = 6

// runFigSweep is one round of what a researcher runs: Figure 7, eight
// workloads × (baseline + six models) through the parallel runner. The
// jobs' own set-up (every job constructs its workload and manager) is
// inside the timed region because every figure run pays it. setup_s is
// one construction of each of the eight inputs — the work the sweep then
// repeats per job, so an input cache filled at set-up shows there.
func runFigSweep(seed uint64, sz sizing, tr *tracer, parent int) (*round, error) {
	r := &round{}
	s := sz.fig
	s.Seed = seed
	specs := experiments.Workloads()
	t0 := time.Now()
	for _, spec := range specs {
		_ = spec.New(s)
	}
	r.buildS = time.Since(t0).Seconds()
	r.setupS = r.buildS
	if sz.setupOnly {
		return r, nil
	}

	var live *obs.Live
	if tr != nil {
		live = obs.NewLive()
		experiments.SetLive(live)
		defer experiments.SetLive(nil)
	}
	m := startMeter()
	s0 := time.Now()
	tbl, err := experiments.Fig7(s)
	e0 := time.Now()
	r.use = m.stop()
	r.check(err == nil, "fig_sweep: Fig7: %v", err)
	if err != nil {
		return r, nil
	}
	if tr != nil {
		tr.add(parent, "experiments.fig7", "fig_sweep/0", s0, e0)
		r.vars, _ = live.Vars().(map[string]any)
		c0 := time.Now()
		cw := &countingWriter{}
		perr := live.WritePrometheus(cw)
		r.scrapeNs = append(r.scrapeNs, float64(time.Since(c0)))
		r.scrapeB = cw.n
		r.check(perr == nil, "fig_sweep: scrape: %v", perr)
	}
	r.retMB = retainedHeapMB()
	jobs := len(specs) * (1 + figModels)
	r.ops = int64(jobs) * int64(s.Windows) * int64(s.OpsPerWindow)
	r.check(len(tbl.Rows) == len(specs)*figModels, "fig_sweep: table has %d rows, want %d", len(tbl.Rows), len(specs)*figModels)
	found := false
	for _, row := range tbl.Rows {
		// workload, model, slowdown_pct, tco_savings_pct, faults
		if len(row) == 5 && row[0] == "Memcached/YCSB" && row[1] == "AM-TCO" {
			v, err := strconv.ParseFloat(row[3], 64)
			r.check(err == nil, "fig_sweep: savings cell %q: %v", row[3], err)
			r.savings, found = v, true
		}
		if len(row) == 5 {
			if f, err := strconv.ParseInt(row[4], 10, 64); err == nil {
				r.counts.Faults += f
			}
		}
	}
	r.check(found, "fig_sweep: no Memcached/YCSB AM-TCO row in the table")
	r.digest = digest([]byte(tbl.String()))
	runtime.KeepAlive(tbl)
	return r, nil
}
