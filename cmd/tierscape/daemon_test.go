package main

import (
	"bytes"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is a bytes.Buffer that run may write while the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// commandsAt matches the daemon's announcement of its listener.
var commandsAt = regexp.MustCompile(`commands at http://(\S+)/command`)

func postCommand(addr, body string) (*http.Response, error) {
	return http.Post("http://"+addr+"/command", "application/json", strings.NewReader(body))
}

// daemonRun is run started in the background on a port the kernel picks.
type daemonRun struct {
	stdout, stderr *lockedBuffer
	done           chan int
}

func startDaemon(args ...string) *daemonRun {
	d := &daemonRun{stdout: new(lockedBuffer), stderr: new(lockedBuffer), done: make(chan int, 1)}
	args = append([]string{"-daemon", "-tick", "1h", "-metrics-addr", "127.0.0.1:0"}, args...)
	go func() { d.done <- run(args, d.stdout, d.stderr) }()
	return d
}

// addr waits up to timeout for the daemon to announce its listener and
// returns the address, or "" if it did not.
func (d *daemonRun) addr(timeout time.Duration) string {
	deadline := time.Now().Add(timeout)
	for {
		if m := commandsAt.FindStringSubmatch(d.stderr.String()); m != nil {
			return m[1]
		}
		if !time.Now().Before(deadline) {
			return ""
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wait gives run's exit status, or ok = false if it has not returned
// within timeout; a daemon that is still serving is then sent a shutdown
// command so that it does not outlive the test.
func (d *daemonRun) wait(timeout time.Duration) (status int, ok bool) {
	select {
	case status := <-d.done:
		return status, true
	case <-time.After(timeout):
		if addr := d.addr(0); addr != "" {
			if resp, err := postCommand(addr, `{"op":"shutdown"}`); err == nil {
				resp.Body.Close()
			}
		}
		<-d.done
		return 0, false
	}
}

// TestDaemonRefusesBadDefaults: the run flags are the defaults every
// attach inherits, so a daemon whose defaults no attach could run (its
// knobs, its workload and footprint, its model, its tier lineup) exits 2
// as a batch run does, before it opens its listener.
func TestDaemonRefusesBadDefaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"negative prefetch threshold", []string{"-prefetch", "-1"}, "prefetch must be >= 0, got -1"},
		{"no ops per window", []string{"-ops", "0"}, "ops must be positive, got 0"},
		{"alpha above 1", []string{"-alpha", "2"}, "alpha must be in [0,1], got 2"},
		{"no pages", []string{"-pages", "0"}, "pages 0 outside [1, 33554432]"},
		{"unknown workload", []string{"-workload", "nope"}, `unknown workload "nope"`},
		{"unknown model", []string{"-model", "oracle"}, `unknown model "oracle"`},
		{"missing tier file", []string{"-tiers", "bogus"}, `tier setup "bogus"`},
	} {
		d := startDaemon(tc.args...)
		status, returned := d.wait(10 * time.Second)
		if !returned {
			t.Errorf("%s: the daemon started and served; want exit 2", tc.name)
			continue
		}
		if status != 2 {
			t.Errorf("%s: exit status %d, want 2", tc.name, status)
		}
		stderr := d.stderr.String()
		if !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, stderr, tc.stderr)
		}
		if commandsAt.MatchString(stderr) || d.stdout.String() != "" {
			t.Errorf("%s: the daemon announced a listener: stdout %q, stderr %q", tc.name, d.stdout, stderr)
		}
	}
}

// TestDaemonSummaryNoWindows: a tenant detached at shutdown before its
// first tick ran no window, so its summary line prints no average TCO
// and no savings.
func TestDaemonSummaryNoWindows(t *testing.T) {
	d := startDaemon("-pages", "1024")
	addr := d.addr(30 * time.Second)
	if addr == "" {
		d.wait(0)
		t.Fatalf("the daemon never announced its listener: stderr %q", d.stderr)
	}
	for _, cmd := range []string{`{"op":"attach","name":"kv"}`, `{"op":"shutdown"}`} {
		resp, err := postCommand(addr, cmd)
		if err != nil {
			d.wait(0)
			t.Fatalf("%s: %v", cmd, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			d.wait(0)
			t.Fatalf("%s: status %d", cmd, resp.StatusCode)
		}
	}
	status, returned := d.wait(30 * time.Second)
	if !returned || status != 0 {
		t.Fatalf("shutdown: exit status %d (returned %v), want 0; stderr %q", status, returned, d.stderr)
	}
	line := strings.TrimSpace(d.stdout.String())
	if !strings.HasPrefix(line, "kv: ") || !strings.Contains(line, "windows 0 ") ||
		!strings.Contains(line, "TCO avg - ") || !strings.HasSuffix(line, "savings -") {
		t.Errorf("summary %q: want windows 0 with avg and savings printed as -", line)
	}
}
