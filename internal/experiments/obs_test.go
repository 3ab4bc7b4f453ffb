package experiments

import (
	"bytes"
	"strings"
	"sync"
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
		l := obs.NewLive()
		s := s
		s.Events, s.Live = &buf, l
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

// TestWarmSolverIdenticalTables: Fig 10's analytical models, each kept
// across its run's windows, give byte-identical tables at GOMAXPROCS 1
// and 4 (serial and fanned out), recording into a live aggregator.
func TestWarmSolverIdenticalTables(t *testing.T) {
	s := SmallScale()
	capture := func(procs int) (csv string) {
		s := s
		s.Live = obs.NewLive()
		withProcs(procs, func() {
			tab, err := Fig10(s)
			if err != nil {
				t.Fatal(err)
			}
			csv = tab.CSV()
		})
		return csv
	}
	var baseCSV string
	for i, procs := range []int{1, 4} {
		csv := capture(procs)
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
	s := SmallScale()
	s.Events = &buf
	if _, err := Fig8(s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"e":"window"`) {
		t.Fatal("stream carries no window snapshots")
	}
}

// TestTwoFiguresOwnSinks: the run-wide settings travel in each figure's
// Scale, so two figures can run at once in one process, each with its own
// event stream and aggregator. Figures 8 and 1 (one job and four, on
// different tier lineups) run side by side; each buffer must be the bytes
// that figure streams when it runs alone, and each Live must count the
// windows of its own figure only.
func TestTwoFiguresOwnSinks(t *testing.T) {
	figs := []func(Scale) (*Table, error){Fig8, Fig1}
	type sinks struct {
		events bytes.Buffer
		live   *obs.Live
		table  string
	}
	run := func(fig func(Scale) (*Table, error), out *sinks) error {
		s := SmallScale()
		out.live = obs.NewLive()
		s.Events, s.Live = &out.events, out.live
		tab, err := fig(s)
		if err == nil {
			out.table = tab.String()
		}
		return err
	}
	alone := make([]sinks, len(figs))
	for i, fig := range figs {
		if err := run(fig, &alone[i]); err != nil {
			t.Fatal(err)
		}
	}
	together := make([]sinks, len(figs))
	errs := make([]error, len(figs))
	var wg sync.WaitGroup
	for i, fig := range figs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(fig, &together[i])
		}()
	}
	wg.Wait()
	for i := range figs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, got := &alone[i], &together[i]
		if got.table != want.table {
			t.Errorf("figure %d: table differs from the one it prints alone", i)
		}
		if !bytes.Equal(got.events.Bytes(), want.events.Bytes()) {
			t.Errorf("figure %d: event stream differs from the one it writes alone", i)
		}
		windows := int64(strings.Count(got.events.String(), `"e":"window"`))
		if n := got.live.Vars().(map[string]any)["windows"].(int64); n != windows || n == 0 {
			t.Errorf("figure %d: its Live counts %d windows, its stream holds %d", i, n, windows)
		}
	}
	if a, b := strings.Count(alone[0].events.String(), `"e":"run"`), strings.Count(alone[1].events.String(), `"e":"run"`); a == b {
		t.Fatalf("both figures stream %d runs; the test needs figures of different sizes", a)
	}
}

// writerFunc is an io.Writer no map can hash.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestEventsAnyWriter: Scale.Events may be any io.Writer, one that is not
// comparable included, because the keys the runner derives from a Scale
// hold its sizing only.
func TestEventsAnyWriter(t *testing.T) {
	var buf bytes.Buffer
	s := SmallScale()
	s.Events = writerFunc(buf.Write)
	if _, err := Fig1(s); err != nil {
		t.Fatal(err)
	}
	if runs := strings.Count(buf.String(), `"e":"run"`); runs != 4 {
		t.Fatalf("stream annotates %d runs, want Fig1's 4", runs)
	}
}
