// Daemon-vs-batch equivalence suite: a daemon stepped K ticks over a
// recorded access stream must be indistinguishable — results, window
// snapshots, move events, the raw JSONL bytes — from batch sim.Run over
// the same stream, at every GOMAXPROCS. This is the load-bearing
// test of the resident mode: it proves the ticker/command machinery adds
// nothing to (and removes nothing from) the control loop it hosts.
package daemon

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/sim"
	"tierscape/internal/trace"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

const (
	eqWindows      = 4
	eqOpsPerWindow = 2000
)

// eqWorkload is the source every recorded trace of the suite comes from.
func eqWorkload() workload.Workload {
	return workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
}

// recordTrace captures exactly eqWindows of ops from a fresh eqWorkload.
func recordTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.Record(&buf, eqWorkload(), eqWindows*eqOpsPerWindow); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// eqManager builds the standard 4-tier mix (DRAM + NVMM + CT-1 + CT-2)
// sized for the given source. Both sides of the equivalence build their
// manager through here with the same corpus seed, so the only variable
// left is who drives the control loop.
func eqManager(t *testing.T, pages int64, content corpus.Profile) *mem.Manager {
	t.Helper()
	m, err := mem.NewManager(mem.Config{
		NumPages:        pages,
		Content:         corpus.NewGenerator(content, 99),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// eqConfig assembles the sim.Config both drivers run: a trace.Reader
// over the recorded bytes, analytical model, JSONL + in-memory capture.
func eqConfig(t *testing.T, raw []byte, cap *obs.Mem, jsonl *bytes.Buffer) (sim.Config, *trace.Reader) {
	t.Helper()
	tr, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return wlConfig(t, tr, cap, jsonl), tr
}

// wlConfig is eqConfig over any workload.
func wlConfig(t *testing.T, wl workload.Workload, cap *obs.Mem, jsonl *bytes.Buffer) sim.Config {
	t.Helper()
	return sim.Config{
		Manager:      eqManager(t, wl.NumPages(), wl.Content()),
		Workload:     wl,
		Model:        &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"},
		OpsPerWindow: eqOpsPerWindow,
		Windows:      eqWindows,
		SampleRate:   20,
		Recorder:     obs.Tee(cap, obs.NewStream(jsonl)),
	}
}

// batchRun replays the trace through plain sim.Run.
func batchRun(t *testing.T, raw []byte) (*sim.Result, *obs.Mem, []byte) {
	t.Helper()
	var cap obs.Mem
	var jsonl bytes.Buffer
	cfg, _ := eqConfig(t, raw, &cap, &jsonl)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, &cap, jsonl.Bytes()
}

// daemonRun replays the trace through a resident daemon (daemonAttach).
func daemonRun(t *testing.T, raw []byte) (*sim.Result, *obs.Mem, []byte) {
	t.Helper()
	var cap obs.Mem
	var jsonl bytes.Buffer
	cfg, _ := eqConfig(t, raw, &cap, &jsonl)
	return daemonAttach(t, cfg), &cap, jsonl.Bytes()
}

// daemonAttach runs cfg in a resident daemon: attach, step the fake clock
// eqWindows ticks, barrier, detach.
func daemonAttach(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	clk := NewFakeClock()
	d, err := New(DefaultConfig(), clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := d.Attach("replay", cfg); err != nil {
		t.Fatal(err)
	}
	if got := clk.StepN(eqWindows); got != eqWindows {
		t.Fatalf("clock delivered %d/%d ticks", got, eqWindows)
	}
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}
	res, err := d.Detach("replay")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDaemonBatchEquivalence: the headline contract, at GOMAXPROCS 1, 2
// and 8 — daemon output is byte-identical to the serial batch run's.
func TestDaemonBatchEquivalence(t *testing.T) {
	raw := recordTrace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	baseRes, baseCap, baseJSONL := batchRun(t, raw)
	if len(baseRes.Windows) != eqWindows {
		t.Fatalf("batch ran %d windows, want %d", len(baseRes.Windows), eqWindows)
	}
	if len(baseCap.Moves) == 0 {
		t.Fatal("batch recorded no move events; equivalence test is vacuous")
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, cap, jsonl := daemonRun(t, raw)
		if !reflect.DeepEqual(res, baseRes) {
			t.Fatalf("GOMAXPROCS=%d: daemon Result differs from batch", procs)
		}
		if !reflect.DeepEqual(cap.Windows, baseCap.Windows) {
			t.Fatalf("GOMAXPROCS=%d: daemon window snapshots differ from batch", procs)
		}
		if !reflect.DeepEqual(cap.Moves, baseCap.Moves) {
			t.Fatalf("GOMAXPROCS=%d: daemon move events differ from batch", procs)
		}
		if !bytes.Equal(jsonl, baseJSONL) {
			t.Fatalf("GOMAXPROCS=%d: daemon JSONL stream is not byte-identical to batch", procs)
		}
	}
}

// TestDaemonLiveEqualsReplay: a daemon stepping a live workload and one
// stepping the replay of its recording are indistinguishable — results,
// window snapshots, move events and JSONL bytes — at GOMAXPROCS 1, 2 and
// 8: the trace carries the name, the footprint, the content profile and
// every op's base cost along with the accesses.
func TestDaemonLiveEqualsReplay(t *testing.T) {
	raw := recordTrace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		var liveCap, replayCap obs.Mem
		var liveJSONL, replayJSONL bytes.Buffer
		live := daemonAttach(t, wlConfig(t, eqWorkload(), &liveCap, &liveJSONL))
		cfg, _ := eqConfig(t, raw, &replayCap, &replayJSONL)
		replay := daemonAttach(t, cfg)
		if len(liveCap.Moves) == 0 {
			t.Fatal("the live run recorded no move events; equivalence test is vacuous")
		}
		if !reflect.DeepEqual(replay, live) {
			t.Fatalf("GOMAXPROCS=%d: replay-attach Result differs from live-attach", procs)
		}
		if !reflect.DeepEqual(replayCap.Windows, liveCap.Windows) || !reflect.DeepEqual(replayCap.Moves, liveCap.Moves) {
			t.Fatalf("GOMAXPROCS=%d: replay-attach window snapshots or move events differ from live-attach", procs)
		}
		if !bytes.Equal(replayJSONL.Bytes(), liveJSONL.Bytes()) {
			t.Fatalf("GOMAXPROCS=%d: replay-attach JSONL stream is not byte-identical to live-attach", procs)
		}
	}
}

// TestDaemonTickBeyondExhaustion: extra ticks after the stream drains
// are harmless — the daemon stops stepping an exhausted source, so the
// result still matches the batch run exactly.
func TestDaemonTickBeyondExhaustion(t *testing.T) {
	raw := recordTrace(t)
	baseRes, _, _ := batchRun(t, raw)

	var cap obs.Mem
	var jsonl bytes.Buffer
	cfg, st := eqConfig(t, raw, &cap, &jsonl)
	clk := NewFakeClock()
	d, err := New(DefaultConfig(), clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := d.Attach("replay", cfg); err != nil {
		t.Fatal(err)
	}
	// eqWindows ticks consume the trace; one more NextOp would hit EOF,
	// so run several extra ticks and rely on exhaustion detection.
	clk.StepN(eqWindows + 1) // the +1 tick performs the EOF-detecting step
	clk.StepN(3)             // these must all skip the drained workload
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}
	if !st.Exhausted() {
		t.Fatal("stream should be exhausted after ticking past its end")
	}
	s, err := d.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != 1 || !s.Workloads[0].Exhausted {
		t.Fatalf("status should report the workload exhausted: %+v", s.Workloads)
	}
	res, err := d.Detach("replay")
	if err != nil {
		t.Fatal(err)
	}
	// The post-exhaustion tick stepped one extra (empty-op) window before
	// exhaustion latched; everything the batch run produced must be a
	// prefix-equal match on the shared windows and aggregates derived
	// from real ops.
	if len(res.Windows) != eqWindows+1 {
		t.Fatalf("daemon ran %d windows, want %d (+1 empty EOF window)", len(res.Windows), eqWindows+1)
	}
	if !reflect.DeepEqual(res.Windows[:eqWindows], baseRes.Windows) {
		t.Fatal("shared windows differ from batch")
	}
	if res.Ops != baseRes.Ops+eqOpsPerWindow {
		t.Fatalf("ops accounting: daemon %d, batch %d", res.Ops, baseRes.Ops)
	}
}

// TestDaemonMultiWorkloadIsolation: two workloads attached to one daemon
// each produce exactly what they produce when run alone — managers,
// steppers and recorders are fully per-workload, so co-residency cannot
// bleed state across.
func TestDaemonMultiWorkloadIsolation(t *testing.T) {
	rawA := recordTrace(t)
	wlB := workload.DefaultMasim(32, 200, 7)
	var bufB bytes.Buffer
	if _, err := trace.Record(&bufB, wlB, eqWindows*eqOpsPerWindow); err != nil {
		t.Fatal(err)
	}
	rawB := bufB.Bytes()

	soloA, _, _ := batchRun(t, rawA)
	soloB, _, _ := batchRun(t, rawB)

	var capA, capB obs.Mem
	var jA, jB bytes.Buffer
	cfgA, _ := eqConfig(t, rawA, &capA, &jA)
	cfgB, _ := eqConfig(t, rawB, &capB, &jB)

	clk := NewFakeClock()
	d, err := New(DefaultConfig(), clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := d.Attach("a", cfgA); err != nil {
		t.Fatal(err)
	}
	if err := d.Attach("b", cfgB); err != nil {
		t.Fatal(err)
	}
	clk.StepN(eqWindows)
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}
	resA, err := d.Detach("a")
	if err != nil {
		t.Fatal(err)
	}
	resB, err := d.Detach("b")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, soloA) {
		t.Fatal("workload A's co-resident result differs from its solo run")
	}
	if !reflect.DeepEqual(resB, soloB) {
		t.Fatal("workload B's co-resident result differs from its solo run")
	}
}
