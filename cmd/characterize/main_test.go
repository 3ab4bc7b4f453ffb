package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitStatus: a bad flag exits 2 with the reason on stderr and
// nothing on stdout; -csv prints Figure 2 as CSV under its header row.
func TestRunExitStatus(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-no-such-flag"}, &stdout, &stderr); got != 2 {
		t.Errorf("unknown flag: exit status %d, want 2", got)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined") || stdout.Len() != 0 {
		t.Errorf("unknown flag: stdout %q, stderr %q", stdout.String(), stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if got := run([]string{"-csv", "-pages", "8"}, &stdout, &stderr); got != 0 || stderr.Len() != 0 {
		t.Fatalf("-csv: exit status %d, stderr %q", got, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if lines[0] != "tier,config,dataset,access_us,norm_tco,ratio" {
		t.Fatalf("-csv header = %q", lines[0])
	}
	if len(lines) != 1+12*2 { // C1…C12 × {nci, dickens}
		t.Errorf("%d CSV rows, want 24:\n%s", len(lines)-1, stdout.String())
	}
}
