package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func readManifest(t *testing.T) manifest {
	t.Helper()
	var mf manifest
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesTables pins BENCHMARK.json to the metric tables the
// program emits from, and to the limits the driver refuses a file over.
func TestManifestMatchesTables(t *testing.T) {
	mf := readManifest(t)
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, bench has %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, bench %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, bench has %d", len(mf.EndToEnd), len(endToEnd))
	}
	for i, m := range mf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d]: manifest %+v, bench %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(mf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("manifest has %d per-layer metrics, bench has %d (limit 128)", len(mf.PerLayer), len(perLayer))
	}
	for i, m := range mf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d]: manifest %+v, bench %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", mf.RunSeconds)
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", mf.Paths)
	}
}

// lastLine decodes the driver's JSON line and requires exactly its keys.
func lastLine(t *testing.T, out []byte) map[string]metricValue {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Fatalf("last line %s lacks exactly the keys correct, attempted, failed, metrics", lines[len(lines)-1])
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(raw["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	return metrics
}

// requireExactly checks the emitted metrics are the listed ones, each
// with its unit.
func requireExactly(t *testing.T, got map[string]metricValue, want []metricDef) {
	t.Helper()
	for _, d := range want {
		v, ok := got[d.name]
		if !ok {
			t.Errorf("metric %s is listed but not emitted", d.name)
			continue
		}
		if v.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, v.Unit, d.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v", d.name, v.Value)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			found := false
			for _, d := range want {
				found = found || d.name == name
			}
			if !found {
				t.Errorf("metric %s is emitted but not listed", name)
			}
		}
	}
}

// TestSmoke runs every workload timed and traced at smoke scale.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			dir := t.TempDir()
			o := options{seed: 7, seconds: 0.2, scale: "smoke", resultsDir: dir}
			var out bytes.Buffer
			timed, err := runOne(&out, def, o)
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Failed != 0 || timed.Attempted < 1 {
				t.Fatalf("timed run: correct=%v failed=%d of %d: %v", timed.Correct, timed.Failed, timed.Attempted, timed.Failures)
			}
			got := lastLine(t, out.Bytes())
			requireExactly(t, got, endToEnd)
			for name, v := range got {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", name, v.Value)
				}
			}

			o.traced = true
			out.Reset()
			traced, err := runOne(&out, def, o)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 {
				t.Fatalf("traced run: failed=%d of %d: %v", traced.Failed, traced.Attempted, traced.Failures)
			}
			requireExactly(t, lastLine(t, out.Bytes()), perLayer)
			if traced.Digest != timed.Digest || timed.Digest == "" {
				t.Errorf("snapshot_digest: timed %q, traced %q", timed.Digest, traced.Digest)
			}
			checkSpans(t, filepath.Join(dir, "trace-"+def.name+".json"))
		})
	}
}

// checkSpans requires a step's child spans to add up to the step: the
// reconstruction of where the access loop ends and the control loop's
// phases lie leaves at most 2 % of the stepped time unexplained.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := readJSON(path, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	steps := map[int]bool{}
	var stepNs, childNs int64
	for _, s := range doc.Spans {
		if s.Name == "sim.step" {
			steps[s.ID] = true
			stepNs += s.End - s.Start
		}
	}
	for _, s := range doc.Spans {
		if steps[s.Parent] {
			childNs += s.End - s.Start
		}
	}
	if len(steps) == 0 {
		return // fig_sweep: the sweep is one span, its steps are out of reach
	}
	if gap := math.Abs(float64(stepNs-childNs)) / float64(stepNs); gap > 0.02 {
		t.Errorf("%d steps took %d ns, their child spans %d ns: %.1f%% apart, want <= 2%%", len(steps), stepNs, childNs, gap*100)
	}
	self := selfNs(doc.Spans)
	for _, s := range doc.Spans {
		if s.Name == "sim.step" && float64(self[s.ID]) < -0.02*float64(s.End-s.Start) {
			t.Errorf("step %s: children exceed the step by %d ns", s.Key, -self[s.ID])
		}
	}
}

// TestTraceOverhead is the guard on the NextOp sampling stride: on
// kv_steady, where the op is cheapest, a traced round must stay within
// 15 % of an untraced one. Other load on the host only ever adds time, so
// the fastest of twelve alternating rounds a side is compared, and the
// best of three tries taken: a busy host does not fail it, a clock pair
// around every NextOp does.
func TestTraceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard")
	}
	sz := scales["smoke"]
	wall := func(tr *tracer) float64 {
		runtime.GC()
		r, err := runKVSteady(7, sz, tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r.use.wallS
	}
	overhead := math.Inf(1)
	for try := 0; try < 3 && overhead >= 15; try++ {
		plain, traced := math.Inf(1), math.Inf(1)
		for i := 0; i < 12; i++ {
			plain = math.Min(plain, wall(nil))
			traced = math.Min(traced, wall(newTracer()))
		}
		overhead = math.Min(overhead, (traced/plain-1)*100)
	}
	if overhead >= 15 {
		t.Errorf("tracing slows kv_steady by %.1f%%, want < 15%%", overhead)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) for the same lists.
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompare drives -compare over synthetic captures: every verdict and
// the exit code that goes with it.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := func(scale float64, savings float64, digest string) capture {
		c := capture{Seed: 42, Scale: "full", Reps: 3}
		for _, def := range workloads {
			for rep := 0; rep < 3; rep++ {
				rec := record{Workload: def.name, Seed: 42, Scale: "full", Digest: digest, Metrics: map[string]metricValue{}}
				for _, d := range endToEnd {
					v := 100 * scale * (1 + 0.001*float64(rep))
					if d.better == "higher" {
						v = 100 / scale * (1 + 0.001*float64(rep))
					}
					if d.name == "tco_savings_pct" {
						v = savings
					}
					rec.Metrics[d.name] = metricValue{v, d.unit}
				}
				c.Runs = append(c.Runs, rec)
			}
		}
		return c
	}
	write := func(name string, c capture) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, c); err != nil {
			t.Fatal(err)
		}
		return path
	}
	manifestPath := filepath.Join("..", "BENCHMARK.json")
	a := write("a.json", base(1, 30, "d1"))
	for _, c := range []struct {
		name string
		b    capture
		code int
		want string
	}{
		{"same", base(1, 30, "d1"), 0, "ok"},
		{"slower", base(1.5, 30, "d1"), 1, "WORSE"},
		{"faster", base(0.5, 30, "d1"), 0, "ok"},
		{"drift", base(1, 31, "d1"), 1, "DRIFT"},
		{"digest", base(1, 30, "d2"), 1, "MISMATCH"},
	} {
		var out bytes.Buffer
		if code := runCompare(&out, manifestPath, a, write(c.name+".json", c.b)); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
	// A capture whose own runs disagree by more than the bound decides
	// nothing, whichever way its median falls.
	noisy := base(1.5, 30, "d1")
	for i := range noisy.Runs {
		m := noisy.Runs[i].Metrics["allocs_per_op"]
		m.Value *= 1 + float64(i%3)
		noisy.Runs[i].Metrics["allocs_per_op"] = m
	}
	var out bytes.Buffer
	runCompare(&out, manifestPath, a, write("noisy.json", noisy))
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy capture: no unresolved row:\n%s", out.String())
	}
}
