package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tierscape"
	"tierscape/internal/daemon"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/sim"
	"tierscape/internal/trace"
)

// flagSpec is the spec the given command line leaves behind: what a daemon
// started with those flags lays every attach document over.
func flagSpec(t *testing.T, args ...string) spec {
	t.Helper()
	fs := flag.NewFlagSet("tierscape", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var s spec
	s.bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecOverlay: an attach document is laid over the flag-filled spec. A
// key it does not carry inherits the flag; a key it carries wins, zero and
// empty included; a key the spec does not have (a knob of another version, a
// flag-only field) is ignored; a value of the wrong type is an error that
// names the key.
func TestSpecOverlay(t *testing.T) {
	flags := flagSpec(t, "-prefetch", "5", "-ops", "3000", "-alpha", "0.3", "-tiers", "spectrum", "-seed", "7")
	edit := func(f func(*spec)) spec { s := flags; f(&s); return s }
	for _, tc := range []struct {
		name, doc string
		want      spec
		err       string
	}{
		{name: "no document", doc: ``, want: flags},
		{name: "empty document", doc: `{}`, want: flags},
		{name: "absent keys inherit", doc: `{"model":"tmo","pages":4096}`,
			want: edit(func(s *spec) { s.Model, s.Pages = "tmo", 4096 })},
		{name: "explicit zero wins", doc: `{"prefetch":0,"alpha":0,"seed":0}`,
			want: edit(func(s *spec) { s.Prefetch, s.Alpha, s.Seed = 0, 0, 0 })},
		{name: "explicit empty string wins", doc: `{"tiers":""}`,
			want: edit(func(s *spec) { s.Tiers = "" })},
		{name: "unknown key", doc: `{"ops":2000,"commit_batch":32}`,
			want: edit(func(s *spec) { s.Ops = 2000 })},
		{name: "removed push key", doc: `{"ops":2000,"push":8}`,
			want: edit(func(s *spec) { s.Ops = 2000 })},
		{name: "flag-only field", doc: `{"windows":99,"Windows":99}`, want: flags},
		{name: "wrong type", doc: `{"ops":"many"}`, err: "spec.ops"},
		{name: "not an object", doc: `[1,2]`, err: "attach spec"},
	} {
		got, err := flags.overlay(json.RawMessage(tc.doc))
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: overlay(%s) = %+v, %v\nwant %+v", tc.name, tc.doc, got, err, tc.want)
		}
	}
	if flags.Prefetch != 5 {
		t.Errorf("overlay wrote through to the flag defaults: %+v", flags)
	}
}

// TestSpecOverlayAttaches follows the attach path to the sim.Config the
// daemon receives: the knobs arrive as overlaid, -model am builds an
// analytical model, and the error cases are attach errors, not configs.
func TestSpecOverlayAttaches(t *testing.T) {
	noByteTier, noCT1, has842 := writeTierFiles(t)
	b := &specBuilder{defaults: flagSpec(t, "-prefetch", "5", "-ops", "3000", "-pages", "2048", "-model", "am")}
	build := func(doc string) (ops, prefetch int, am bool, err error) {
		cfg, err := b.build(daemon.AttachSpec{Name: "kv", Spec: json.RawMessage(doc)})
		if err != nil {
			return 0, 0, false, err
		}
		_, am = cfg.Model.(*model.Analytical)
		return cfg.OpsPerWindow, cfg.PrefetchFaultThreshold, am, nil
	}
	for _, tc := range []struct {
		doc           string
		ops, prefetch int
	}{
		{`{"commit_batch":32}`, 3000, 5},
		{`{"push":8}`, 3000, 5},
		{`{"ops":2000,"prefetch":0}`, 2000, 0},
		{`{"alpha":0.5}`, 3000, 5},
	} {
		ops, prefetch, am, err := build(tc.doc)
		if err != nil || ops != tc.ops || prefetch != tc.prefetch || !am {
			t.Errorf("%s: ops %d prefetch %d analytical %v, %v; want %d, %d and the -model am flag's *model.Analytical",
				tc.doc, ops, prefetch, am, err, tc.ops, tc.prefetch)
		}
	}
	for doc, want := range map[string]string{
		`{"ops":"many"}`:                                        "spec.ops",
		`{"model":"oracle"}`:                                    `unknown model "oracle"`,
		`{"workload":"tetris"}`:                                 `unknown workload "tetris"`,
		`{"tiers":"/no/such"}`:                                  `tier setup "/no/such"`,
		`{"replay":"/no/such"}`:                                 "/no/such",
		`{"model":"hemem","tiers":"spectrum"}`:                  "HeMem* needs a byte-addressable tier",
		fmt.Sprintf(`{"model":"hemem","tiers":%q}`, noByteTier): "HeMem* needs a byte-addressable tier",
		fmt.Sprintf(`{"model":"gswap","tiers":%q}`, noCT1):      "GSwap* needs CT-1",
		fmt.Sprintf(`{"tiers":%q}`, has842):                     `unknown codec "842"`,
		`{"alpha":1.5}`:                                         "alpha must be in [0,1], got 1.5",
		`{"alpha":-2}`:                                          "alpha must be in [0,1], got -2",
		`{"pct":101}`:                                           "pct must be in [0,100], got 101",
		`{"pct":-1}`:                                            "pct must be in [0,100], got -1",
	} {
		if _, _, _, err := build(doc); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one mentioning %q", doc, err, want)
		}
	}
}

// writeTierFiles writes three tier files for the refusals: one with no
// byte-addressable tier, one with no CT-1 (both for the baselines), and one
// naming 842, a codec the option-space census removed.
func writeTierFiles(t *testing.T) (noByteTier, noCT1, has842 string) {
	t.Helper()
	dir := t.TempDir()
	noByteTier, noCT1 = filepath.Join(dir, "no-byte-tier.json"), filepath.Join(dir, "no-ct1.json")
	has842 = filepath.Join(dir, "842.json")
	for path, doc := range map[string]string{
		noByteTier: `{"compressedTiers":[{"codec":"lzo","pool":"zsmalloc","media":"DRAM"},{"codec":"zstd","pool":"zsmalloc","media":"NVMM"}]}`,
		noCT1:      `{"byteTiers":["NVMM"],"compressedTiers":[{"codec":"zstd","pool":"zsmalloc","media":"NVMM"}]}`,
		has842:     `{"compressedTiers":[{"codec":"842","pool":"zsmalloc","media":"DRAM"}]}`,
	} {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return noByteTier, noCT1, has842
}

// TestTierFileExample: the tier file -h shows is one -tiers reads as NVMM
// plus CT-1.
func TestTierFileExample(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiers.json")
	if err := os.WriteFile(path, []byte(tierFileExample), 0o644); err != nil {
		t.Fatal(err)
	}
	tiers, byteTiers, err := resolveTiers(path)
	if err != nil || !reflect.DeepEqual(byteTiers, []tierscape.MediaKind{tierscape.NVMM}) ||
		!reflect.DeepEqual(tiers, tierscape.StandardMix()[:1]) {
		t.Fatalf("%s reads as byte tiers %v, compressed tiers %v, err %v; want NVMM and CT-1",
			tierFileExample, byteTiers, tiers, err)
	}
}

// TestPagesBounded: a page count from outside the program — an attach
// body, the -pages flag — outside [1, mem.MaxPages] is refused before any
// workload or manager is built. Each count is tried with no workload name
// first, so a missing check shows as the wrong error, not as an
// allocation.
func TestPagesBounded(t *testing.T) {
	b := &specBuilder{defaults: flagSpec(t)}
	for _, wl := range []string{"no-such-workload", "memcached-ycsb", "bfs", "masim"} {
		for _, pages := range []int64{-1, 0, mem.MaxPages + 1, 1 << 40} {
			doc := fmt.Sprintf(`{"workload":%q,"pages":%d}`, wl, pages)
			_, err := b.build(daemon.AttachSpec{Name: "kv", Spec: json.RawMessage(doc)})
			if err == nil || !strings.Contains(err.Error(), "outside [1, ") {
				t.Fatalf("%s: error %v, want one about the page count", doc, err)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-pages", "1099511627776"}, &stdout, &stderr); got != 2 ||
		stdout.Len() != 0 || !strings.Contains(stderr.String(), "pages 1099511627776 outside") {
		t.Fatalf("-pages 2^40: exit %d, stdout %q, stderr %q; want 2 and the bound on stderr", got, stdout.String(), stderr.String())
	}
}

// TestRunExitStatus: a command line the program cannot act on exits 2, a
// sink it cannot write exits 1, both say why on stderr with nothing on
// stdout.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	badTiers := filepath.Join(dir, "tiers.json")
	if err := os.WriteFile(badTiers, []byte(`{"compressedTiers":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	small := []string{"-windows", "1", "-ops", "100", "-pages", "1024"}
	noByteTier, noCT1, has842 := writeTierFiles(t)
	// A v1 trace: one op whose single access is page -600 of 1024.
	v1Trace := filepath.Join(dir, "v1.trace")
	if err := os.WriteFile(v1Trace, []byte("TSTR\x01\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\xe0\x12"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A v2 trace of 1024 pages, no name: one op at 100 ns whose single
	// access is page 1024.
	badTrace := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(badTrace, []byte("TSTR\x02\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x59\x40\x00\x08"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		stderr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"malformed value", []string{"-ops", "many"}, 2, "invalid value"},
		{"unknown model", []string{"-model", "oracle"}, 2, `unknown model "oracle"`},
		{"unknown workload", []string{"-workload", "tetris"}, 2, `unknown workload "tetris"`},
		{"unreadable tier file", []string{"-tiers", filepath.Join(dir, "absent.json")}, 2, "tier setup"},
		{"tier file without tiers", []string{"-tiers", badTiers}, 2, "no compressed tiers"},
		{"unreadable trace", []string{"-replay", filepath.Join(dir, "absent.trace")}, 2, "absent.trace"},
		{"v1 trace", []string{"-replay", v1Trace}, 2, "version 1"},
		{"out-of-range page in a replayed trace", append([]string{"-replay", badTrace}, small...), 1, "page 1024 outside [0, 1024)"},
		{"daemon without a listener", []string{"-daemon"}, 2, "-metrics-addr"},
		{"removed -warm-solver flag", []string{"-warm-solver"}, 2, "flag provided but not defined: -warm-solver"},
		{"removed -push flag", []string{"-push", "8"}, 2, "flag provided but not defined: -push"},
		{"unwritable events file", append([]string{"-events", filepath.Join(dir, "no/such/dir/e.jsonl")}, small...), 1, "events file"},
		{"unwritable record file", append([]string{"-record", filepath.Join(dir, "no/such/dir/t.trace")}, small...), 1, "record file"},
		{"negative compaction budget", []string{"-compact-budget", "-1"}, 2, "-compact-budget: a budget cannot be negative"},
		{"negative compaction budget, daemon", []string{"-daemon", "-compact-budget", "-1"}, 2, "-compact-budget: a budget cannot be negative"},
		{"removed -windows-csv flag", []string{"-windows-csv", filepath.Join(dir, "w.csv")}, 2, "flag provided but not defined: -windows-csv"},
		{"run that cannot start", []string{"-windows", "0"}, 1, "must be positive"},
		{"HeMem* on the spectrum", []string{"-model", "hemem", "-tiers", "spectrum"}, 2, "HeMem* needs a byte-addressable tier"},
		{"HeMem* on a tier file without a byte tier", []string{"-model", "hemem", "-tiers", noByteTier}, 2, "HeMem* needs a byte-addressable tier"},
		{"GSwap* on a tier file without CT-1", []string{"-model", "gswap", "-tiers", noCT1}, 2, "GSwap* needs CT-1"},
		{"tier file naming a codec the module lacks", append([]string{"-tiers", has842}, small...), 2, `unknown codec "842"`},
		{"alpha above 1", []string{"-model", "am", "-alpha", "1.5"}, 2, "alpha must be in [0,1], got 1.5"},
		{"negative alpha", []string{"-model", "am", "-alpha", "-2"}, 2, "alpha must be in [0,1], got -2"},
		{"NaN alpha", []string{"-model", "am", "-alpha", "NaN"}, 2, "alpha must be in [0,1], got NaN"},
		{"pct above 100", []string{"-model", "waterfall", "-pct", "101"}, 2, "pct must be in [0,100], got 101"},
		{"negative pct", []string{"-model", "hemem", "-pct", "-1"}, 2, "pct must be in [0,100], got -1"},
		{"record during a replay", []string{"-replay", filepath.Join(dir, "a.trace"), "-record", filepath.Join(dir, "b.trace")}, 2, "-record and -replay cannot be combined"},
		{"help", []string{"-h"}, 0, "Usage of tierscape"},
		{"help gives a tier file's shape", []string{"-h"}, 0, "or a JSON tier file such as " + tierFileExample},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.status {
			t.Errorf("%s: exit status %d, want %d", tc.name, got, tc.status)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, stderr.String(), tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: %d bytes on stdout", tc.name, stdout.Len())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "b.trace")); !os.IsNotExist(err) {
		t.Errorf("a refused -record during a replay left b.trace behind: %v", err)
	}
}

// TestRunSinks drives one small run with the event stream on: the summary
// and the stream's completion line reach stdout, the stream holds one window
// event per window and the run's moves, and the output does not depend on
// GOMAXPROCS.
func TestRunSinks(t *testing.T) {
	ev := filepath.Join(t.TempDir(), "e.jsonl")
	runOnce := func(procs int) (stdout, events string) {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out, errs bytes.Buffer
		args := []string{"-workload", "masim", "-model", "waterfall", "-windows", "3", "-ops", "4000",
			"-pages", "3072", "-events", ev}
		if status := run(args, &out, &errs); status != 0 || errs.Len() != 0 {
			t.Fatalf("%v: exit status %d, stderr %q", args, status, errs.String())
		}
		e, err := os.ReadFile(ev)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), string(e)
	}
	stdout, events := runOnce(1)
	for _, want := range []string{"workload: masim", "\n     3  ", "time-averaged savings", "events written to"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if got := strings.Count(events, `"e":"window"`); got != 3 {
		t.Errorf("%d window events, want 3", got)
	}
	if !strings.Contains(events, `"e":"move"`) {
		t.Error("no move event in the stream: the run migrated nothing")
	}
	stdout8, events8 := runOnce(8)
	if stdout8 != stdout || events8 != events {
		t.Error("GOMAXPROCS 8 printed a different report or events than GOMAXPROCS 1")
	}
}

// TestReplayRunsOut: `-record` then `-replay` of the same windows print
// the same report — workload name, table and summary — and a replay that
// asks for more ops than the trace holds exits 1 naming both counts,
// instead of running on empty ops.
func TestReplayRunsOut(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "run.trace")
	shape := []string{"-workload", "memcached-ycsb", "-pages", "1024", "-ops", "500"}
	var live, errs bytes.Buffer
	if status := run(append([]string{"-record", tr, "-windows", "2"}, shape...), &live, &errs); status != 0 {
		t.Fatalf("record: exit status %d, stderr %q", status, errs.String())
	}
	recorded, report, ok := strings.Cut(live.String(), "\n")
	if !ok || !strings.HasPrefix(recorded, "trace recorded to") || !strings.HasPrefix(report, "workload: Memcached/YCSB ") {
		t.Fatalf("record printed:\n%s", live.String())
	}
	var replay bytes.Buffer
	if status := run(append([]string{"-replay", tr, "-windows", "2"}, shape...), &replay, &errs); status != 0 {
		t.Fatalf("replay: exit status %d, stderr %q", status, errs.String())
	}
	if replay.String() != report {
		t.Errorf("the replay printed:\n%s\nthe recording run:\n%s", replay.String(), report)
	}
	var out bytes.Buffer
	errs.Reset()
	if status := run(append([]string{"-replay", tr, "-windows", "3"}, shape...), &out, &errs); status != 1 ||
		!strings.Contains(errs.String(), "holds 1000 ops, the run needs 1500") || out.Len() != 0 {
		t.Errorf("a replay past the trace's end: exit status %d, stdout %q, stderr %q; want 1, nothing, both counts",
			status, out.String(), errs.String())
	}
}

// catalog is every workload -workload names.
var catalog = []string{"masim", "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f",
	"memcached-ycsb", "memcached-memtier", "redis", "bfs", "pagerank", "xsbench", "graphsage"}

// TestReplayEqualsLive: a replay is the run it recorded. For every catalog
// workload and a Colocated, a live run that records its trace as it goes
// (what -record does) returns the Result — deep-equal — that the replay
// of the trace returns at GOMAXPROCS 1, 2 and 8. A catalog replay builds
// its manager from the trace, as -replay does; the Colocated's, like the
// live run's, from the Colocated itself, whose per-tenant content a trace
// does not carry (as a figure's shared streams do).
func TestReplayEqualsLive(t *testing.T) {
	s := flagSpec(t, "-pages", "1024", "-windows", "2", "-ops", "1500")
	runOn := func(wl, source tierscape.Workload) *tierscape.Result {
		t.Helper()
		cfg, err := s.runConfig(source)
		if err != nil {
			t.Fatal(err)
		}
		scfg, err := tierscape.SimConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg.Workload = wl
		res, err := sim.Run(scfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	type source struct {
		name string
		mk   func() tierscape.Workload
	}
	var sources []source
	for _, name := range catalog {
		sources = append(sources, source{name, func() tierscape.Workload {
			wl, err := buildWorkload(name, s.Pages, s.Seed)
			if err != nil {
				t.Fatal(err)
			}
			return wl
		}})
	}
	colocated := func() tierscape.Workload {
		return tierscape.Colocate(tierscape.MemcachedMemtier(1024, 1024, 7), tierscape.PageRankWorkload(1<<12, 7))
	}
	sources = append(sources, source{"colocated", colocated})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, src := range sources {
		wl := src.mk()
		var raw bytes.Buffer
		rec, err := trace.NewRecorder(&raw, wl)
		if err != nil {
			t.Fatal(err)
		}
		live := runOn(rec, wl)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			tr, err := trace.NewReader(bytes.NewReader(raw.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			manager := tierscape.Workload(tr)
			if src.name == "colocated" {
				manager = colocated()
			}
			if replay := runOn(tr, manager); !reflect.DeepEqual(replay, live) {
				t.Errorf("%s, GOMAXPROCS=%d: the replay's Result differs from the live run's: %s %.0f ops/s, %d ops vs live %s %.0f ops/s, %d ops",
					src.name, procs, replay.WorkloadName, replay.ThroughputOpsPerSec(), replay.Ops,
					live.WorkloadName, live.ThroughputOpsPerSec(), live.Ops)
			}
		}
	}
}
