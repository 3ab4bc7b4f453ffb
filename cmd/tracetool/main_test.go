package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// with nothing on stdout.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	crafted := filepath.Join(dir, "crafted.trace")
	if err := os.WriteFile(crafted, []byte(craftedTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(dir, "v1.trace")
	if err := os.WriteFile(v1, []byte(v1Trace), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		stderr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"no mode", nil, 2, "need -stat FILE"},
		{"chrome without events", []string{"-chrome", filepath.Join(dir, "out.json")}, 2, "-chrome needs -events"},
		{"negative top", []string{"-stat", crafted, "-top", "-1"}, 2, "-top must be >= 0"},
		// Checked in every mode, before a workload is built: with -stat a
		// missing check fails this row on the crafted trace, not by
		// allocating 2^40 pages.
		{"oversized pages", []string{"-stat", crafted, "-pages", "1099511627776"}, 2, "-pages 1099511627776 outside [1, "},
		{"zero pages", []string{"-stat", crafted, "-pages", "0"}, 2, "-pages 0 outside [1, "},
		{"unreadable stat file", []string{"-stat", filepath.Join(dir, "missing.trace")}, 1, "no such file"},
		{"out-of-range page", []string{"-stat", crafted}, 1, "page 1024 outside [0, 1024)"},
		{"v1 trace", []string{"-stat", v1}, 1, "version 1"},
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
}

// TestRunRecordStat: a trace -record writes is one -stat reads back, op
// for op, and the hottest-regions list honours -top.
func TestRunRecordStat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.trace")
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-record", path, "-workload", "redis", "-ops", "500", "-pages", "2048"}, &stdout, &stderr); status != 0 {
		t.Fatalf("record: exit status %d, stderr %q", status, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "recorded "+path+": 500 ops, ") {
		t.Fatalf("record printed %q", stdout.String())
	}
	stdout.Reset()
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
