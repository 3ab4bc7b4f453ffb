package obs

import (
	"encoding/json"
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

// streamEvent is the JSONL envelope: "e" discriminates the event kind
// (run | window | move) and exactly one payload field is set.
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
