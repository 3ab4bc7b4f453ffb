// Chrome trace-event export: converts the deterministic JSONL event
// stream (tierscape -events / experiments -events) into the Chrome
// trace-event JSON format, viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// The timeline is the simulator's virtual clock. Each {"e":"run"}
// annotation starts a new process; inside it, thread 0 carries the
// application's per-window slices and thread 1 the TS-Daemon control-loop
// phases (profile, solve, migrate, compact, prefetch) laid end to end at
// each window boundary. Counter tracks (tco, pressure, faults, storm)
// ride along, so tiering pressure lines up visually with the phase that
// caused it.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tierscape/internal/obs"
)

// chromeEvent is one entry of the trace-event array. Ph "X" is a
// complete slice (ts+dur), "C" a counter sample, "M" metadata; ts and
// dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object Perfetto expects.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

const (
	appThread    = 0
	daemonThread = 1
)

// chromeBuilder accumulates trace events for one export.
type chromeBuilder struct {
	events []chromeEvent
	pid    int     // current process (run); 0 until the first event
	cursor float64 // virtual-time cursor of the current run, µs
	moves  int     // move events seen since the last window snapshot
	pages  int     // pages they moved
}

func (b *chromeBuilder) meta(tid int, name, value string) {
	b.events = append(b.events, chromeEvent{
		Name: name, Ph: "M", Pid: b.pid, Tid: tid,
		Args: map[string]any{"name": value},
	})
}

// startRun opens a new process for a run annotation (or the implicit
// first run of an unannotated single-run stream).
func (b *chromeBuilder) startRun(label string) {
	b.pid++
	b.cursor = 0
	b.moves, b.pages = 0, 0
	if label == "" {
		label = fmt.Sprintf("run %d", b.pid)
	}
	b.meta(appThread, "process_name", label)
	b.meta(appThread, "thread_name", "app (virtual)")
	b.meta(daemonThread, "thread_name", "ts-daemon (virtual)")
}

func (b *chromeBuilder) counter(ts float64, name string, value any) {
	b.events = append(b.events, chromeEvent{
		Name: name, Ph: "C", Pid: b.pid, Tid: appThread, Ts: ts,
		Args: map[string]any{name: value},
	})
}

// window lays out one snapshot: the app slice, then the daemon phases
// end to end, then the window's counter samples.
func (b *chromeBuilder) window(w *obs.WindowSnapshot) {
	if b.pid == 0 {
		b.startRun("")
	}
	appDur := w.AppNs / 1e3
	b.events = append(b.events, chromeEvent{
		Name: fmt.Sprintf("window %d", w.Window), Ph: "X",
		Pid: b.pid, Tid: appThread, Ts: b.cursor, Dur: appDur,
		Args: map[string]any{
			"faults":   w.Faults,
			"pressure": w.Pressure,
			"p99_ns":   w.Latency.P99Ns,
		},
	})
	t := b.cursor + appDur
	phase := func(name string, ns float64, args map[string]any) {
		if ns <= 0 {
			return
		}
		b.events = append(b.events, chromeEvent{
			Name: name, Ph: "X", Pid: b.pid, Tid: daemonThread,
			Ts: t, Dur: ns / 1e3, Args: args,
		})
		t += ns / 1e3
	}
	phase("profile", w.ProfileNs, nil)
	phase("solve", w.SolverNs, map[string]any{"fallbacks": w.SolverFallbacks})
	phase("migrate", w.MigrateNs, map[string]any{
		"moves": b.moves, "moved_pages": b.pages,
		"rejected": w.Rejected, "pingpong": w.PingPongMoves,
	})
	phase("compact", w.CompactNs, map[string]any{"reclaimed_pages": w.CompactedPages})
	phase("prefetch", w.PrefetchNs, nil)
	b.moves, b.pages = 0, 0

	end := b.cursor + (w.AppNs+w.DaemonNs)/1e3
	b.counter(end, "tco", w.TCO)
	b.counter(end, "pressure", w.Pressure)
	b.counter(end, "faults", w.Faults)
	b.counter(end, "storm_bytes_per_sec", w.StormBytesPerSec)
	b.cursor = end
}

// exportChrome reads the JSONL event stream at eventsPath and writes the
// Chrome trace JSON to outPath, reporting what it wrote on stdout.
func exportChrome(stdout io.Writer, eventsPath, outPath string) error {
	var b chromeBuilder
	runs := 0
	err := readEvents(eventsPath, func(label string, w *obs.WindowSnapshot, m *obs.MoveEvent) error {
		switch {
		case w != nil:
			b.window(w)
		case m != nil:
			b.moves++
			b.pages += m.Moved
		default:
			b.startRun(label)
			runs++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if b.pid == 0 {
		return fmt.Errorf("%s: no events found", eventsPath)
	}
	if runs == 0 {
		runs = b.pid
	}
	out, err := json.Marshal(chromeTrace{DisplayTimeUnit: "ms", TraceEvents: b.events})
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d trace events for %d run(s) to %s\n", len(b.events), runs, outPath)
	return nil
}
