package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Stream is a Recorder that encodes the deterministic event channel —
// window snapshots and move events — as JSON Lines, one event per line.
// Runtime telemetry (RecordRuntime) is deliberately dropped: it carries
// wall-clock measurements, and a stream that included them could never be
// byte-reproducible. With that exclusion the emitted bytes are identical
// at every push-thread count and across repeated runs, which is what the
// determinism suite asserts and what makes recorded streams diffable.
//
// The first encoding or write error latches (Err) and silences the
// stream; Recorder methods have no error returns, so callers check Err
// once at the end.
type Stream struct {
	w   io.Writer
	err error
}

// NewStream returns a Stream writing JSONL events to w.
func NewStream(w io.Writer) *Stream { return &Stream{w: w} }

// streamEvent is the JSONL envelope, written by Stream and read by
// ReadStream: "e" discriminates the event kind (run | window | move) and
// exactly one payload field is set.
type streamEvent struct {
	E      string          `json:"e"`
	Label  string          `json:"label,omitempty"`
	Window *WindowSnapshot `json:"window,omitempty"`
	Move   *MoveEvent      `json:"move,omitempty"`
}

func (s *Stream) emit(ev streamEvent) {
	if s.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	_, s.err = s.w.Write(b)
}

// Annotate writes a {"e":"run"} marker line, used to label the run whose
// events follow (multi-run sinks write one per job, in job order).
func (s *Stream) Annotate(label string) { s.emit(streamEvent{E: "run", Label: label}) }

// RecordWindow implements Recorder.
func (s *Stream) RecordWindow(w WindowSnapshot) { s.emit(streamEvent{E: "window", Window: &w}) }

// RecordMove implements Recorder.
func (s *Stream) RecordMove(m MoveEvent) { s.emit(streamEvent{E: "move", Move: &m}) }

// RecordRuntime implements Recorder. Runtime telemetry is wall-clock and
// therefore excluded from the deterministic stream.
func (s *Stream) RecordRuntime(WindowRuntime) {}

// Err returns the first encoding or write error, if any.
func (s *Stream) Err() error { return s.err }

// ReadStream decodes a stream Stream wrote, calling fn once per event in
// stream order: for a window or a move event with its payload (the other
// one nil), for a {"e":"run"} marker with its label and both payloads nil.
// Blank lines are skipped. A malformed line, an event without its payload,
// an unknown kind or an error from fn stops the read with an error naming
// the line.
func ReadStream(r io.Reader, fn func(label string, w *WindowSnapshot, m *MoveEvent) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev streamEvent
		err := json.Unmarshal(sc.Bytes(), &ev)
		switch {
		case err != nil:
		case ev.E == "run":
			err = fn(ev.Label, nil, nil)
		case ev.E == "window" && ev.Window != nil:
			err = fn("", ev.Window, nil)
		case ev.E == "move" && ev.Move != nil:
			err = fn("", nil, ev.Move)
		case ev.E == "window" || ev.E == "move":
			err = fmt.Errorf("%s event without payload", ev.E)
		default:
			err = fmt.Errorf("unknown event kind %q", ev.E)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", line+1, err)
	}
	return nil
}
