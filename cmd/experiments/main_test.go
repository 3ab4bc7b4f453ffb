package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestRunExitStatus: a command line the program cannot act on exits 2 and
// says why on stderr, with nothing on stdout.
func TestRunExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		status int
		stderr string
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"malformed value", []string{"-metrics-hold", "many"}, 2, "invalid value"},
		{"unknown exhibit", []string{"-fig", "99", "-scale", "small"}, 2, `unknown exhibit "99"`},
		{"unknown scale", []string{"-fig", "table1", "-scale", "galactic"}, 2, `unknown scale "galactic"`},
		{"removed -warm-solver flag", []string{"-warm-solver"}, 2, "flag provided but not defined: -warm-solver"},
		{"removed -parallel flag", []string{"-parallel", "1"}, 2, "flag provided but not defined: -parallel"},
		{"removed -push flag", []string{"-push", "1"}, 2, "flag provided but not defined: -push"},
		{"removed -compact-budget flag", []string{"-compact-budget", "8"}, 2, "flag provided but not defined: -compact-budget"},
		{"unwritable events file", []string{"-fig", "table1", "-events", t.TempDir() + "/no/such/dir/e.jsonl"}, 1, "events file"},
		{"help", []string{"-h"}, 0, "Usage of experiments"},
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

// TestRunFig7Identical drives the sweep a researcher runs through the
// flags: Figure 7 at small scale is one table of 48 runs, and the bytes
// printed do not depend on GOMAXPROCS, the runner's width.
func TestRunFig7Identical(t *testing.T) {
	fig7 := func(procs int) string {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var stdout, stderr bytes.Buffer
		if status := run([]string{"-fig", "7", "-scale", "small"}, &stdout, &stderr); status != 0 || stderr.Len() != 0 {
			t.Fatalf("GOMAXPROCS=%d: exit status %d, stderr %q", procs, status, stderr.String())
		}
		return stdout.String()
	}
	serial := fig7(1)
	if wide := fig7(8); wide != serial {
		t.Errorf("GOMAXPROCS 8 printed a different table than GOMAXPROCS 1:\n%s\nvs\n%s", wide, serial)
	}
	lines := strings.Split(serial, "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "== Figure 7") || strings.Trim(lines[2], "-") != "" {
		t.Fatalf("not a Figure 7 table:\n%s", serial)
	}
	rows := 0
	for _, l := range lines[3:] {
		if l == "" || strings.HasPrefix(l, "note:") {
			break
		}
		rows++
	}
	if rows != 48 {
		t.Errorf("%d data rows, want 48 (8 workloads x 6 models)", rows)
	}
}
