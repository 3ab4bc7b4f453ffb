package trace

import (
	"io"

	"tierscape/internal/corpus"
	"tierscape/internal/workload"
)

// Stream adapts a recorded trace arriving on any io.Reader — a finished
// file, a file still being written, a pipe, a network socket — into a
// live, consume-once access source for the resident tiering daemon.
// Unlike Reader it never rewinds, even when the underlying source happens
// to be seekable: a stream is ingested exactly once, in arrival order,
// which is what makes a daemon replay equivalent to the batch run over
// the same bytes. When the stream drains, NextOp yields empty ops and
// Exhausted reports true so the driver can detach the workload.
//
// Determinism: a Stream is a pure function of the bytes it reads, so two
// Streams over identical byte sequences produce identical op streams —
// the property the daemon-vs-batch equivalence suite leans on.
type Stream struct {
	r *Reader
}

// NewStream opens a trace stream. It reads the trace header immediately,
// blocking until those bytes arrive on pipe-like sources.
func NewStream(src io.Reader) (*Stream, error) {
	r, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	return &Stream{r: r}, nil
}

// Name implements workload.Workload.
func (s *Stream) Name() string { return "trace-stream" }

// NumPages implements workload.Workload.
func (s *Stream) NumPages() int64 { return s.r.NumPages() }

// Content implements workload.Workload.
func (s *Stream) Content() corpus.Profile { return s.r.Content() }

// BaseOpNs implements workload.Workload.
func (s *Stream) BaseOpNs() float64 { return s.r.BaseOpNs() }

// NextOp implements workload.Workload: the next recorded op, never
// rewinding. After the stream drains it returns empty ops.
func (s *Stream) NextOp(buf []workload.Access) []workload.Access {
	return s.r.nextOp(buf, false)
}

// Exhausted reports that the stream has drained: no further op will ever
// arrive, and every subsequent NextOp is empty.
func (s *Stream) Exhausted() bool { return s.r.Exhausted() }
