package experiments

import (
	"bytes"
	"strings"
	"testing"

	"tierscape/internal/obs"
)

// TestConcurrentEventStreamIdenticalBytes extends the engine's determinism
// guarantee to the observability sink: the JSONL event stream a harness
// emits must be byte-identical at every GOMAXPROCS, which sets how far its
// runs fan out — per-job buffers flush in job-index order, so worker
// scheduling can't reorder events.
// Runs under -race in CI (the Concurrent suite).
func TestConcurrentEventStreamIdenticalBytes(t *testing.T) {
	s := SmallScale()
	capture := func(procs int) (stream, csv string) {
		var buf bytes.Buffer
		SetEventSink(&buf)
		defer SetEventSink(nil)
		l := obs.NewLive()
		SetLive(l)
		defer SetLive(nil)
		withProcs(procs, func() {
			tab, err := Fig10(s)
			if err != nil {
				t.Fatal(err)
			}
			csv = tab.CSV()
		})
		if vars, ok := l.Vars().(map[string]any); !ok || vars["windows"].(int64) == 0 {
			t.Fatal("live aggregator saw no windows")
		}
		return buf.String(), csv
	}
	baseStream, baseCSV := capture(1)
	if runs := strings.Count(baseStream, `"e":"run"`); runs < 2 {
		t.Fatalf("stream annotates %d runs; Fig10 submits a multi-job set", runs)
	}
	if !strings.Contains(baseStream, `"e":"window"`) {
		t.Fatal("stream carries no window snapshots")
	}
	for _, procs := range []int{2, 8} {
		stream, csv := capture(procs)
		if csv != baseCSV {
			t.Fatalf("GOMAXPROCS=%d: table differs from serial", procs)
		}
		if stream != baseStream {
			t.Fatalf("GOMAXPROCS=%d: event stream is not byte-identical to serial", procs)
		}
	}
}

// TestWarmSolverIdenticalTables pins the incremental solve that every
// analytical model now runs: Fig 10's tables must be byte-identical at
// GOMAXPROCS 1 and 4 (serial and fanned out), and the live
// aggregator must report warm hits, so the solver state really carries
// across windows rather than being rebuilt cold each time.
func TestWarmSolverIdenticalTables(t *testing.T) {
	s := SmallScale()
	capture := func(procs int) (csv string, warmHits int64) {
		l := obs.NewLive()
		SetLive(l)
		defer SetLive(nil)
		withProcs(procs, func() {
			tab, err := Fig10(s)
			if err != nil {
				t.Fatal(err)
			}
			csv = tab.CSV()
		})
		vars, ok := l.Vars().(map[string]any)
		if !ok {
			t.Fatal("live vars have unexpected shape")
		}
		return csv, vars["warm_hits"].(int64)
	}
	var baseCSV string
	for i, procs := range []int{1, 4} {
		csv, hits := capture(procs)
		if hits == 0 {
			t.Fatalf("GOMAXPROCS=%d: no analytical window reported a warm hit", procs)
		}
		if i == 0 {
			baseCSV = csv
		} else if csv != baseCSV {
			t.Fatalf("GOMAXPROCS=%d: table differs from serial", procs)
		}
	}
}

// TestEventSinkWithoutLive pins the -events-without--metrics-addr
// configuration: an event sink with no live aggregator must stream, not
// crash (a nil *obs.Live rebound as a non-nil Recorder interface once
// slipped past obs.Tee's nil check and dereferenced nil).
func TestEventSinkWithoutLive(t *testing.T) {
	var buf bytes.Buffer
	SetEventSink(&buf)
	defer SetEventSink(nil)
	if _, err := Fig8(SmallScale()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"e":"window"`) {
		t.Fatal("stream carries no window snapshots")
	}
}
