package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func snap(window, moves int) WindowSnapshot {
	return WindowSnapshot{
		Window:    window,
		AppNs:     1000,
		DaemonNs:  100,
		SolverNs:  40,
		MigrateNs: 50,
		CompactNs: 10,
		TCO:       2.5,
		TierPages: []int64{128, 64, 32},
		TierBytes: []int64{128 * 4096, 64 * 4096, 20 * 4096},
		TierRatio: []float64{0, 0, 0.4},
		TierFrag:  []float64{0, 0, 0.1},
		Migrations: []TierFlow{
			{From: 0, To: 2, Pages: int64(moves)},
		},
		Moves: moves,
	}
}

// TestTee: nil recorders collapse — zero non-nil yields nil (the disabled
// state), one yields the recorder itself, several fan out in order.
func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("Tee of no recorders must be nil")
	}
	var a Mem
	if Tee(nil, &a) != Recorder(&a) {
		t.Fatal("Tee of one recorder must be that recorder, unwrapped")
	}
	var b Mem
	tee := Tee(&a, nil, &b)
	tee.RecordWindow(snap(1, 4))
	tee.RecordMove(MoveEvent{Window: 1, Job: 0})
	tee.RecordRuntime(WindowRuntime{Window: 1})
	for name, m := range map[string]*Mem{"first": &a, "second": &b} {
		if len(m.Windows) != 1 || len(m.Moves) != 1 || len(m.Runtimes) != 1 {
			t.Fatalf("%s recorder got %d/%d/%d events, want 1/1/1",
				name, len(m.Windows), len(m.Moves), len(m.Runtimes))
		}
	}
}

// TestStreamJSONL: one event per line, discriminated envelopes, runtime
// records excluded, annotations preserved.
func TestStreamJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(&buf)
	s.Annotate("job=0 workload=test")
	s.RecordMove(MoveEvent{Window: 1, Job: 0, Region: 3, From: 0, To: 2, Moved: 128})
	s.RecordWindow(snap(1, 128))
	s.RecordRuntime(WindowRuntime{Window: 1, PrepareWallNs: 123}) // must not appear
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("stream has %d lines, want 3 (runtime excluded): %q", len(lines), lines)
	}
	for i, wantKind := range []string{"run", "move", "window"} {
		var ev struct {
			E      string          `json:"e"`
			Label  string          `json:"label"`
			Window *WindowSnapshot `json:"window"`
			Move   *MoveEvent      `json:"move"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if ev.E != wantKind {
			t.Fatalf("line %d kind %q, want %q", i, ev.E, wantKind)
		}
		switch wantKind {
		case "run":
			if ev.Label != "job=0 workload=test" {
				t.Fatalf("run label = %q", ev.Label)
			}
		case "move":
			if ev.Move == nil || ev.Move.Moved != 128 || ev.Move.To != 2 {
				t.Fatalf("move payload = %+v", ev.Move)
			}
		case "window":
			if ev.Window == nil || ev.Window.Moves != 128 || len(ev.Window.TierPages) != 3 {
				t.Fatalf("window payload = %+v", ev.Window)
			}
		}
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("sink failed")
	}
	f.after--
	return len(p), nil
}

func TestStreamErrorLatch(t *testing.T) {
	s := NewStream(&failWriter{after: 1})
	s.RecordMove(MoveEvent{Job: 0}) // succeeds
	s.RecordMove(MoveEvent{Job: 1}) // fails and latches
	s.RecordMove(MoveEvent{Job: 2}) // silenced
	if s.Err() == nil {
		t.Fatal("write error did not latch")
	}
}

// TestCSVWindowRows: header derived from the first snapshot's tier count,
// then one row per window with the per-tier column groups.
func TestCSVWindowRows(t *testing.T) {
	var buf bytes.Buffer
	c := NewCSV(&buf)
	c.RecordWindow(snap(1, 10))
	c.RecordWindow(snap(2, 20))
	c.RecordMove(MoveEvent{})        // ignored
	c.RecordRuntime(WindowRuntime{}) // ignored
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "window" || header[len(header)-1] != "tier2_frag" {
		t.Fatalf("header = %v", header)
	}
	for _, row := range lines[1:] {
		if got := len(strings.Split(row, ",")); got != len(header) {
			t.Fatalf("row has %d columns, header has %d", got, len(header))
		}
	}
	if !strings.HasPrefix(lines[2], "2,") {
		t.Fatalf("second row = %q, want window 2", lines[2])
	}
}

// TestLivePrometheus: counters accumulate across windows, the migration
// matrix and per-tier gauges render, and series appear with their HELP and
// TYPE lines.
func TestLivePrometheus(t *testing.T) {
	l := NewLive()
	l.RecordWindow(snap(1, 10))
	l.RecordWindow(snap(2, 20))
	l.RecordRuntime(WindowRuntime{
		Window:        2,
		PrepareWallNs: 2e9,
		CommitWallNs:  1e9,
		Sched:         SchedulerStats{Jobs: 30, BlockedAwaits: 4, StallNs: 5e8},
	})
	var buf bytes.Buffer
	if err := l.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"tierscape_windows_total 2",
		"tierscape_moved_pages_total 30",
		"tierscape_migrated_pages_total{from=\"0\",to=\"2\"} 30",
		"tierscape_tier_pages{tier=\"2\"} 32",
		"tierscape_tier_compression_ratio{tier=\"2\"} 0.4",
		"tierscape_sched_blocked_awaits_total 4",
		"tierscape_sched_stall_seconds_total 0.5",
		"tierscape_prepare_wall_seconds_total 2",
		"tierscape_phase_wall_seconds_total{phase=\"solve\"}",
		"# TYPE tierscape_windows_total counter",
		"# TYPE tierscape_tier_pages gauge",
		"tierscape_tco 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHandlerEndpoints drives the introspection mux in-process: /metrics
// serves the exposition, /debug/vars is valid JSON containing the
// tierscape variable, and the pprof suite responds.
func TestHandlerEndpoints(t *testing.T) {
	l := NewLive()
	l.RecordWindow(snap(1, 10))
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, "tierscape_windows_total 1") {
		t.Fatalf("/metrics missing counters:\n%s", body)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["tierscape"]; !ok {
		t.Fatal("/debug/vars lacks the tierscape variable")
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline returned nothing")
	}

	// A second Live repoints the shared expvar variable instead of
	// panicking on double-publish.
	l2 := NewLive()
	l2.PublishExpvar()
	var after struct {
		Tierscape struct {
			Windows int64 `json:"windows"`
		} `json:"tierscape"`
	}
	if err := json.Unmarshal([]byte(get("/debug/vars")), &after); err != nil {
		t.Fatal(err)
	}
	if after.Tierscape.Windows != 0 {
		t.Fatalf("expvar still reports the old Live (windows=%d)", after.Tierscape.Windows)
	}
}
