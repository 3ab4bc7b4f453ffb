package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tierscape"
	"tierscape/internal/corpus"
	"tierscape/internal/trace"
	"tierscape/internal/workload"
)

// craftedTrace is a well-formed v2 header (1024 pages, no name) followed
// by one op at 100 ns whose single access is page 1024, outside the
// footprint.
const craftedTrace = "TSTR\x02\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x59\x40\x00\x08"

// v1Trace is a trace of the retired format 1: one op whose single access
// has delta -600.
const v1Trace = "TSTR\x01\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\xe0\x12"

// TestRunExitStatus: a command line the program cannot act on exits 2, a
// mode that fails exits 1 — never a panic — and each says why on stderr
// with nothing on stdout; a -csv that fails leaves no file.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	crafted := write("crafted.trace", craftedTrace)
	v1 := write("v1.trace", v1Trace)
	const (
		w3 = `{"e":"window","window":{"Window":1,"TierPages":[1,2,3],"TierBytes":[1,2,3],"TierRatio":[0,0,0],"TierFrag":[0,0,0]}}` + "\n"
		w2 = `{"e":"window","window":{"Window":2,"TierPages":[1,2],"TierBytes":[1,2],"TierRatio":[0,0],"TierFrag":[0,0]}}` + "\n"
	)
	malformed := write("malformed.jsonl", w3+`{"e":`+"\n")
	unknown := write("unknown.jsonl", w3+`{"e":"tick"}`+"\n")
	multiRun := write("multi.jsonl", `{"e":"run","label":"a"}`+"\n"+w3+`{"e":"run","label":"b"}`+"\n"+w3)
	lineup := write("lineup.jsonl", w3+w2)
	noWindows := write("nowindows.jsonl", `{"e":"run","label":"a"}`+"\n")
	outCSV := filepath.Join(dir, "out.csv")
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		stderr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"removed -record flag", []string{"-record", filepath.Join(dir, "t.trace")}, 2, "flag provided but not defined: -record"},
		{"no mode", nil, 2, "need -stat FILE"},
		{"chrome without events", []string{"-chrome", filepath.Join(dir, "out.json")}, 2, "-chrome needs -events"},
		{"csv without events", []string{"-csv", outCSV}, 2, "-csv needs -events"},
		{"negative top", []string{"-stat", crafted, "-top", "-1"}, 2, "-top must be >= 0"},
		{"unreadable stat file", []string{"-stat", filepath.Join(dir, "missing.trace")}, 1, "no such file"},
		{"out-of-range page", []string{"-stat", crafted}, 1, "page 1024 outside [0, 1024)"},
		{"v1 trace", []string{"-stat", v1}, 1, "version 1"},
		{"malformed event line", []string{"-csv", outCSV, "-events", malformed}, 1, "malformed.jsonl: line 2: "},
		{"unknown event kind", []string{"-csv", outCSV, "-events", unknown}, 1, `unknown.jsonl: line 2: unknown event kind "tick"`},
		{"multi-run stream", []string{"-csv", outCSV, "-events", multiRun}, 1, `multi.jsonl: line 3: a second run "b"`},
		{"tier lineup change", []string{"-csv", outCSV, "-events", lineup}, 1, "lineup.jsonl: line 2: window 2 has 2 tiers, the CSV header has 3"},
		{"stream without windows", []string{"-csv", outCSV, "-events", noWindows}, 1, "nowindows.jsonl: no window events"},
		{"help", []string{"-h"}, 0, "Usage of tracetool"},
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
	if _, err := os.Stat(outCSV); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a -csv that failed left %s behind (stat: %v)", outCSV, err)
	}
}

// TestRunRecordStat: -stat reads back, op for op, a trace recorded the
// way tierscape -record records one, and the hottest-regions list honours
// -top.
func TestRunRecordStat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Record(f, tierscape.RedisYCSB(2048, 42), 500); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-stat", path, "-top", "2"}, &stdout, &stderr); status != 0 {
		t.Fatalf("stat: exit status %d, stderr %q", status, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"workload: Redis/YCSB\n", " (4 regions), content profile: ", "base op costs (ns): [2000]\n", "ops: 500 ", "hottest 2 regions:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stat output lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "  region "); n != 2 {
		t.Errorf("%d region rows with -top 2, want 2:\n%s", n, out)
	}
}

// TestDeriveGolden: -csv and -chrome on a recorded event stream reproduce
// the checked-in files byte for byte. testdata/masim-tmo.jsonl is the
// stream of `tierscape -workload masim -model tmo -compact-budget 8
// -events`, which holds move events. The -compact-budget flag is gone
// (each window now runs one unbounded compaction pass); the fixture stays
// as recorded, since the derivations only read it. masim-tmo.csv is the
// windows CSV the run wrote as it went, before the CSV became a
// derivation of the stream, and masim-tmo.json the Chrome trace of the
// stream.
func TestDeriveGolden(t *testing.T) {
	const events = "testdata/masim-tmo.jsonl"
	if raw, err := os.ReadFile(events); err != nil || !bytes.Contains(raw, []byte(`"e":"move"`)) {
		t.Fatalf("%s: no move events (read error %v)", events, err)
	}
	dir := t.TempDir()
	for _, mode := range []struct{ flag, golden, report string }{
		{"-csv", "testdata/masim-tmo.csv", "wrote 8 window rows to "},
		{"-chrome", "testdata/masim-tmo.json", "wrote 59 trace events for 1 run(s) to "},
	} {
		out := filepath.Join(dir, filepath.Base(mode.golden))
		var stdout, stderr bytes.Buffer
		if status := run([]string{mode.flag, out, "-events", events}, &stdout, &stderr); status != 0 {
			t.Fatalf("%s: exit status %d, stderr %q", mode.flag, status, stderr.String())
		}
		if stdout.String() != mode.report+out+"\n" {
			t.Errorf("%s printed %q", mode.flag, stdout.String())
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(mode.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from %s's %d", mode.flag, len(got), mode.golden, len(want))
		}
	}
}

// TestStatReadsToTheEnd: -stat reads a trace until it is exhausted, so an
// op of no accesses is counted and does not end the count, and it lists
// each distinct base op cost once.
func TestStatReadsToTheEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.trace")
	var raw bytes.Buffer
	tw, err := trace.NewWriter(&raw, 1024, corpus.Mixed, "hand-made")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		acc  []workload.Access
		cost float64
	}{{[]workload.Access{{Page: 1}}, 250}, {nil, 100}, {[]workload.Access{{Page: 2, Write: true}}, 250}} {
		if err := tw.WriteOp(op.acc, op.cost); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-stat", path}, &stdout, &stderr); status != 0 {
		t.Fatalf("stat: exit status %d, stderr %q", status, stderr.String())
	}
	for _, want := range []string{"workload: hand-made\n", "base op costs (ns): [100 250]\n", "ops: 3   accesses: 2 "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stat output lacks %q:\n%s", want, stdout.String())
		}
	}
}
