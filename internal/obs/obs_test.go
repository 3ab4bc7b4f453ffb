package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"slices"
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

// TestReadStream: ReadStream hands back, in order, the events Stream
// wrote — the payloads equal, the run marker's label kept — and an error
// from a bad line or from the callback names its line.
func TestReadStream(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(&buf)
	move := MoveEvent{Window: 1, Job: 0, Region: 3, From: 0, To: 2, Moved: 128}
	win := snap(1, 128)
	win.Pressure = 1.0 / 3
	s.Annotate("job=0")
	s.RecordMove(move)
	s.RecordWindow(win)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	var got []string
	err := ReadStream(strings.NewReader(buf.String()+"\n"), func(label string, w *WindowSnapshot, m *MoveEvent) error {
		switch {
		case w != nil:
			if !reflect.DeepEqual(*w, win) {
				t.Errorf("window read back as %+v, written %+v", *w, win)
			}
			got = append(got, "window")
		case m != nil:
			if *m != move {
				t.Errorf("move read back as %+v, written %+v", *m, move)
			}
			got = append(got, "move")
		default:
			got = append(got, "run "+label)
		}
		return nil
	})
	if err != nil || !slices.Equal(got, []string{"run job=0", "move", "window"}) {
		t.Fatalf("read %q, err %v; want the run, the move and the window", got, err)
	}

	// A window line as streams carried it while the solver reported its
	// incremental reuse (ClassesReused, ClassesRebuilt, SolverRebuildNs,
	// SolverRepairNs): an old -events file still decodes, those fields
	// dropped, so tracetool still derives from it.
	old := `{"e":"window","window":{"Window":2,"SolverNs":66505.86500259617,"Faults":143,"WarmHit":true,` +
		`"ClassesReused":1,"ClassesRebuilt":5,"SolverRebuildNs":55421.55,"SolverRepairNs":11084.31,"SolverLPGap":0.08807013708327141}}`
	var read []WindowSnapshot
	err = ReadStream(strings.NewReader(old), func(_ string, w *WindowSnapshot, _ *MoveEvent) error {
		read = append(read, *w)
		return nil
	})
	want := WindowSnapshot{Window: 2, SolverNs: 66505.86500259617, Faults: 143, WarmHit: true, SolverLPGap: 0.08807013708327141}
	if err != nil || len(read) != 1 || !reflect.DeepEqual(read[0], want) {
		t.Fatalf("old window line read as %+v, err %v; want %+v", read, err, want)
	}

	errStop := errors.New("stop")
	for _, tc := range []struct {
		name, in, want string
	}{
		{"malformed line", `{"e":"run"}` + "\n{\"e\":", "line 2: unexpected end of JSON input"},
		{"window without payload", `{"e":"run"}` + "\n\n" + `{"e":"window"}`, "line 3: window event without payload"},
		{"move without payload", `{"e":"move"}`, "line 1: move event without payload"},
		{"unknown kind", `{"e":"run"}` + "\n" + `{"e":"tick"}`, `line 2: unknown event kind "tick"`},
		{"callback error", `{"e":"run"}` + "\n" + `{"e":"run","label":"b"}`, "line 2: stop"},
	} {
		err := ReadStream(strings.NewReader(tc.in), func(label string, _ *WindowSnapshot, _ *MoveEvent) error {
			if label == "b" {
				return errStop
			}
			return nil
		})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestCSVWindowRows: header derived from the first snapshot's tier count,
// then one row per window with the per-tier column groups; a snapshot of
// another tier count is refused, not written.
func TestCSVWindowRows(t *testing.T) {
	var buf bytes.Buffer
	c := NewCSV(&buf)
	for _, w := range []WindowSnapshot{snap(1, 10), snap(2, 20)} {
		if err := c.Write(&w); err != nil {
			t.Fatal(err)
		}
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

	fewer := snap(3, 30)
	fewer.TierPages = fewer.TierPages[:2]
	short := snap(4, 40)
	short.TierFrag = short.TierFrag[:2]
	n := buf.Len()
	for _, w := range []WindowSnapshot{fewer, short} {
		want := fmt.Sprintf("window %d has 2 tiers, the CSV header has 3", w.Window)
		if err := c.Write(&w); err == nil || err.Error() != want {
			t.Errorf("window %d: error %v, want %q", w.Window, err, want)
		}
	}
	if buf.Len() != n {
		t.Errorf("a refused window wrote %q", buf.String()[n:])
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
// serves the exposition, the pprof suite responds, and there is no
// /debug/vars.
func TestHandlerEndpoints(t *testing.T) {
	l := NewLive()
	l.RecordWindow(snap(1, 10))
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()

	get := func(path string, status int) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if body := get("/metrics", 200); !strings.Contains(body, "tierscape_windows_total 1") {
		t.Fatalf("/metrics missing counters:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline", 200); body == "" {
		t.Fatal("/debug/pprof/cmdline returned nothing")
	}
	get("/debug/vars", 404)
}
