package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// craftedTrace is a well-formed header (1024 pages) followed by one op
// whose single access has delta -600: page -600, outside the footprint.
const craftedTrace = "TSTR\x01\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\xe0\x12"

// TestRunExitStatus: a command line the program cannot act on exits 2, a
// mode that fails exits 1 — never a panic — and each says why on stderr
// with nothing on stdout.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	crafted := filepath.Join(dir, "crafted.trace")
	if err := os.WriteFile(crafted, []byte(craftedTrace), 0o644); err != nil {
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
		{"out-of-range page", []string{"-stat", crafted}, 1, "page -600 outside [0, 1024)"},
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
	for _, want := range []string{" (4 regions), content profile: ", "ops: 500 ", "hottest 2 regions:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stat output lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "  region "); n != 2 {
		t.Errorf("%d region rows with -top 2, want 2:\n%s", n, out)
	}
}
