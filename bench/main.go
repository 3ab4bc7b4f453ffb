// Command bench is the repository's benchmark: four named workloads, each
// measured end to end with nothing attached (-trace 0) and layer by layer
// with outside-only spans and direct layer probes (-trace 1).
//
//	go run ./bench -workload kv_steady -seed 42 -seconds 20 -trace 0
//	go run ./bench -workload all -seed 42        # every workload, timed then traced, one process each
//	go run ./bench -compare a.json b.json        # two captures against BENCHMARK.json's bounds
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}; the exit code is
// non-zero when any check failed. README.md explains the workloads, the
// metrics and how to read the trace files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"tierscape/internal/stats"
)

// minTimedRounds is the fewest rounds a timed run takes whatever
// -seconds says, so every median has three samples behind it.
const minTimedRounds = 3

// tracedShare is the part of -seconds a traced run spends on rounds; the
// rest is for the layer probes.
const tracedShare = 0.7

type options struct {
	seed       uint64
	seconds    float64
	traced     bool
	scale      string
	resultsDir string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run of one workload.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Scale      string                 `json:"scale"`
	Traced     bool                   `json:"traced"`
	Seconds    float64                `json:"seconds"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Digest     string                 `json:"snapshot_digest"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Extras     map[string]metricValue `json:"extras,omitempty"`
}

func main() {
	workload := flag.String("workload", "all", "kv_steady, spectrum_churn, fig_sweep, daemon_multi, or all")
	seed := flag.Uint64("seed", 42, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	scale := flag.String("scale", "full", "full, or smoke (seconds-long rounds for the tests)")
	results := flag.String("results", "bench/results", "directory for trace-<workload>.json and latest.json")
	out := flag.String("out", "", "also write the run's record (or, with -workload all, the capture) to this file")
	reps := flag.Int("reps", 1, "with -workload all: repetitions of every run")
	commit := flag.String("commit", "", "with -workload all: commit to record in the capture")
	compare := flag.Bool("compare", false, "compare two captures: bench -compare a.json b.json")
	manifest := flag.String("manifest", "BENCHMARK.json", "with -compare: where the bounds are")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1)))
	}
	if _, ok := scales[*scale]; !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace != 0, scale: *scale, resultsDir: *results}
	if *workload == "all" {
		os.Exit(runAll(o, *reps, *commit, *out))
	}
	def := findWorkload(*workload)
	if def == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	rec, err := runOne(os.Stdout, def, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !rec.Correct {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runOne runs one workload once, prints every metric by name and unit,
// and ends its output with the driver's JSON line.
func runOne(w io.Writer, def *workloadDef, o options) (record, error) {
	rec := record{
		Workload: def.name, Seed: o.seed, Scale: o.scale, Traced: o.traced, Seconds: o.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics:    map[string]metricValue{}, Extras: map[string]metricValue{},
	}
	run := runTimed
	if o.traced {
		run = runTraced
	}
	c, err := run(def, o, &rec)
	if err != nil {
		return rec, err
	}
	rec.Attempted, rec.Failed, rec.Failures = c.attempted, c.failed, c.failures
	rec.Correct = rec.Failed == 0

	defs, kind := endToEnd, "end-to-end"
	if o.traced {
		defs, kind = perLayer, "per-layer"
	}
	fmt.Fprintf(w, "# %s seed=%d scale=%s %s GOMAXPROCS=%d\n", def.name, o.seed, o.scale, kind, rec.GOMAXPROCS)
	fmt.Fprintf(w, "snapshot_digest %s\n", rec.Digest)
	for _, d := range defs {
		v, ok := rec.Metrics[d.name]
		if !ok { // not exercised by this workload: 0 for the driver, absent from the table
			rec.Metrics[d.name] = metricValue{0, d.unit}
			continue
		}
		fmt.Fprintf(w, "%-46s %16.6g %s\n", d.name, v.Value, v.Unit)
	}
	for _, d := range append(append([]metricDef{}, timedExtras...), runInfo...) {
		if v, ok := rec.Extras[d.name]; ok {
			fmt.Fprintf(w, "%-46s %16.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "%-46s %16d of %d\n", "failed_checks", rec.Failed, rec.Attempted)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return rec, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return rec, nil
}

// roundSeedStride separates the seeds of a run's rounds. Round 0 runs on
// -seed itself and supplies the modeled metrics and the digest, which are
// therefore functions of -seed alone; the later rounds only feed the
// host-time medians, and giving each its own inputs keeps one seed's
// placement quirks (how many pages happen to land on zstd) from tilting a
// whole run. The stride keeps round seeds of neighbouring -seed values
// apart.
const roundSeedStride = 1000003

func roundSeed(seed uint64, i int) uint64 { return seed + uint64(i)*roundSeedStride }

// roundsFor runs rounds until budget seconds have passed and at least min
// rounds are done, stopping early when the next round would overshoot by
// more than half its length. A failed check ends the run.
func roundsFor(budget float64, min int, c *checks, one func(i int) (*round, error)) ([]*round, error) {
	var rounds []*round
	start := time.Now()
	for {
		runtime.GC() // every round starts from a collected heap
		t0 := time.Now()
		r, err := one(len(rounds))
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		c.add(r.checks)
		if r.failed > 0 {
			return rounds, nil
		}
		if len(rounds) >= min && time.Since(start).Seconds()+time.Since(t0).Seconds()/2 >= budget {
			return rounds, nil
		}
	}
}

func collect(rounds []*round, f func(*round) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// setupShare is the part of -seconds a timed run spends measuring set-up
// on its own; the rounds get the rest.
const setupShare = 0.1

// setupSamples times the workload's set-up apart from the rounds: a
// set-up of a few milliseconds that allocates a few megabytes takes 4 ms
// or 7.5 ms depending on whether a collection happens to run beside it,
// and which of the two a round's own set-up hits is a matter of the
// previous round's garbage. So every sample starts from a collected heap
// and runs with the collector paused: the cost of constructing, not of
// where in a GC cycle it fell. Samples are taken until budget seconds are
// spent, at least three and at most 48.
//
// setup_s is the samples' lower quartile, not their median. What is left
// after the collector is out of the way still has two modes — the
// daemon's set-up is 3.9 ms or 7.0 ms, the second four times as often
// with two Ps as with one, which points at its command round trips
// waking the other thread — interleaved at random, a few per cent of the
// samples in one run and most of them in the next. That only adds time,
// so the lower quartile stays in the undisturbed mode until three samples
// in four are hit, and a real regression moves every quantile alike.
func setupSamples(def *workloadDef, seed uint64, sz sizing, budget float64) ([]float64, error) {
	sz.setupOnly = true
	var out []float64
	start := time.Now()
	for len(out) < 3 || (len(out) < 48 && time.Since(start).Seconds() < budget) {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		r, err := def.run(roundSeed(seed, len(out)), sz, nil, 0)
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, err
		}
		out = append(out, r.setupS)
	}
	return out, nil
}

func runTimed(def *workloadDef, o options, rec *record) (*checks, error) {
	c := &checks{}
	sz := scales[o.scale]
	rounds, err := roundsFor(o.seconds*(1-setupShare), minTimedRounds, c, func(i int) (*round, error) {
		return def.run(roundSeed(o.seed, i), sz, nil, 0)
	})
	if err != nil {
		return nil, err
	}
	r0 := rounds[0]
	rec.Digest = r0.digest
	setups, err := setupSamples(def, o.seed, sz, o.seconds*setupShare)
	if err != nil {
		return nil, err
	}

	units := map[string]string{}
	for _, d := range append(append(append([]metricDef{}, endToEnd...), timedExtras...), runInfo...) {
		units[d.name] = d.unit
	}
	set := func(into map[string]metricValue, name string, v float64) { into[name] = metricValue{v, units[name]} }
	med := func(f func(*round) float64) float64 { return median(collect(rounds, f)) }
	set(rec.Metrics, "setup_s", stats.PercentileOf(setups, 25))
	set(rec.Extras, "setup_samples", float64(len(setups)))
	set(rec.Metrics, "sim_ops_per_s", med(func(r *round) float64 { return float64(r.ops) / r.use.wallS }))
	set(rec.Extras, "cpu_s", med(func(r *round) float64 { return r.use.cpuS }))
	set(rec.Metrics, "alloc_bytes_per_op", med(func(r *round) float64 { return float64(r.use.allocBytes) / float64(r.ops) }))
	set(rec.Metrics, "allocs_per_op", med(func(r *round) float64 { return float64(r.use.mallocs) / float64(r.ops) }))
	set(rec.Metrics, "retained_heap_mb", med(func(r *round) float64 { return r.retMB }))
	set(rec.Metrics, "tco_savings_pct", r0.savings)

	var steps []float64
	for _, r := range rounds {
		for _, ns := range r.stepNs {
			steps = append(steps, ns/1e6)
		}
	}
	if len(steps) > 0 {
		set(rec.Extras, "step_wall_ms_p50", stats.PercentileOf(steps, 50))
		set(rec.Extras, "step_wall_ms_p90", stats.PercentileOf(steps, 90))
		set(rec.Extras, "step_samples", float64(len(steps)))
	}
	if r0.modeledOps > 0 {
		set(rec.Extras, "modeled_ops_per_s", r0.modeledOps)
		set(rec.Extras, "modeled_op_p999_us", r0.modeledP999)
	}
	set(rec.Extras, "peak_rss_mb", peakRSSMB())
	set(rec.Extras, "rounds", float64(len(rounds)))
	return c, nil
}

func runTraced(def *workloadDef, o options, rec *record) (*checks, error) {
	c := &checks{}
	sz := scales[o.scale]
	tr := newTracer()
	tr.logAccesses = true
	var plain, traced []*round
	// Untraced and traced rounds alternate, so both medians behind
	// trace_overhead_pct see the same minutes of the host; the two rounds
	// of a pair run the same seed and must agree on the digest.
	_, err := roundsFor(o.seconds*tracedShare, 1, c, func(i int) (*round, error) {
		seed := roundSeed(o.seed, i)
		u, err := def.run(seed, sz, nil, 0)
		if err != nil {
			return nil, err
		}
		plain = append(plain, u)
		if u.failed > 0 {
			return u, nil
		}
		runtime.GC()
		start := time.Now()
		root := tr.add(0, "round", fmt.Sprintf("%s/round%d", def.name, len(traced)), start, start)
		t, err := def.run(seed, sz, tr, root)
		if err != nil {
			return nil, err
		}
		tr.end(root, time.Now())
		tr.logAccesses = false
		traced = append(traced, t)
		same := t.digest == u.digest && t.savings == u.savings && t.counts == u.counts
		t.check(same, "%s: round %d: traced digest %s, untraced digest %s", def.name, i, t.digest, u.digest)
		t.add(u.checks)
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	if len(traced) == 0 {
		return c, nil
	}
	rec.Digest = traced[0].digest

	in := def.probe(o.seed, sz)
	for _, rt := range traced[0].runs {
		in.accesses = append(in.accesses, rt.accessLog...)
		rt.accessLog = nil
	}
	perRound := make([]map[string]float64, len(traced))
	for i, t := range traced {
		perRound[i] = layerMetrics(t)
	}
	values := runProbes(in, o.seed, sz, c)
	counts := map[string]bool{}
	for _, d := range perLayer {
		counts[d.name] = d.unit == "count"
	}
	for name, v0 := range perRound[0] {
		if counts[name] || modeled[name] { // round 0 runs on -seed itself
			values[name] = v0
			continue
		}
		vals := make([]float64, len(perRound))
		for i := range perRound {
			vals[i] = perRound[i][name]
		}
		values[name] = median(vals)
	}
	wall := func(r *round) float64 { return r.use.wallS }
	values["trace_overhead_pct"] = (median(collect(traced, wall))/median(collect(plain, wall)) - 1) * 100

	for _, d := range perLayer {
		if v, ok := values[d.name]; ok {
			rec.Metrics[d.name] = metricValue{v, d.unit}
			delete(values, d.name)
		}
	}
	for name := range values {
		c.check(false, "%s: metric %s is measured but not listed", def.name, name)
	}
	rec.Extras["rounds"] = metricValue{float64(len(traced)), "count"}
	path := filepath.Join(o.resultsDir, "trace-"+def.name+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	return c, nil
}
