// Package trace records and replays page-access traces. A trace captures
// exactly what the tiering system observes from a workload — the op-
// delimited stream of (page, read/write) events — so experiments can be
// repeated bit-for-bit, compared across models without workload
// re-execution, or run against captured production-style traces.
//
// The on-disk format is a compact binary stream (all little-endian):
//
//	header:  magic "TSTR" | version u16 | numPages u64 | content u8
//	event:   op-start marker (varint 0) | access varint stream
//	access:  delta-encoded page id (zig-zag varint, +1 shifted) with the
//	         write flag folded into bit 0
//
// Delta + varint encoding keeps real traces small (typically ~2 bytes per
// access).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/workload"
)

const magic = "TSTR"
const version = 1

// ErrBadTrace is returned when a trace stream is malformed.
var ErrBadTrace = errors.New("trace: malformed trace")

// Writer records a workload's accesses to an io.Writer.
type Writer struct {
	w        *bufio.Writer
	lastPage int64
	events   int64
	ops      int64
	closed   bool
}

// NewWriter starts a trace for a workload with the given page count and
// content profile.
func NewWriter(w io.Writer, numPages int64, content corpus.Profile) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	var hdr [11]byte
	binary.LittleEndian.PutUint16(hdr[0:], version)
	binary.LittleEndian.PutUint64(hdr[2:], uint64(numPages))
	hdr[10] = byte(content)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// BeginOp marks the start of a new operation.
func (t *Writer) BeginOp() error {
	if t.closed {
		return errors.New("trace: write after Close")
	}
	t.ops++
	return t.w.WriteByte(0) // varint 0 = op marker
}

// Access records one page touch of the current op.
func (t *Writer) Access(p mem.PageID, write bool) error {
	if t.closed {
		return errors.New("trace: write after Close")
	}
	delta := int64(p) - t.lastPage
	t.lastPage = int64(p)
	// Zig-zag the delta, shift by 1 so value 0 stays reserved for the op
	// marker, and fold the write bit in.
	zz := uint64((delta << 1) ^ (delta >> 63))
	v := ((zz + 1) << 1)
	if write {
		v |= 1
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	t.events++
	_, err := t.w.Write(buf[:n])
	return err
}

// Close flushes the trace. The writer is unusable afterwards.
func (t *Writer) Close() error {
	t.closed = true
	return t.w.Flush()
}

// Ops returns the number of recorded operations.
func (t *Writer) Ops() int64 { return t.ops }

// Events returns the number of recorded accesses.
func (t *Writer) Events() int64 { return t.events }

// Reader replays a recorded trace as a workload.Workload. When the stream
// is exhausted it rewinds (the underlying reader must be an io.ReadSeeker
// for that; otherwise replay ends with empty ops and Replays stops
// growing).
type Reader struct {
	src       io.Reader
	r         *bufio.Reader
	numPages  int64
	content   corpus.Profile
	lastPage  int64
	pending   bool  // an op marker has been consumed and an op is open
	exhausted bool  // the stream hit a dead end it could not rewind out of
	err       error // the malformed access that stopped the reader for good
	replays   int64
}

// NewReader opens a trace for replay.
func NewReader(src io.Reader) (*Reader, error) {
	t := &Reader{src: src}
	if err := t.readHeader(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Reader) readHeader() error {
	t.r = bufio.NewReader(t.src)
	var hdr [15]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if string(hdr[:4]) != magic {
		return fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != version {
		return fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	t.numPages = int64(binary.LittleEndian.Uint64(hdr[6:]))
	if t.numPages <= 0 || t.numPages > mem.MaxPages {
		return fmt.Errorf("%w: %d pages outside [1, %d]", ErrBadTrace, t.numPages, mem.MaxPages)
	}
	t.content = corpus.Profile(hdr[14])
	if !slices.Contains(corpus.Profiles(), t.content) {
		return fmt.Errorf("%w: unknown content profile %d", ErrBadTrace, hdr[14])
	}
	t.lastPage = 0
	t.pending = false
	t.exhausted = false
	return nil
}

// Exhausted reports that the trace has drained (or hit malformed bytes)
// and could not rewind: every further NextOp yields an empty op. Rewinding
// readers over seekable sources never exhaust on well-formed bytes;
// consume-once sources (pipes, sockets, Stream) do, which is the signal a
// resident driver uses to detach a finished replay.
func (t *Reader) Exhausted() bool { return t.exhausted }

// Err reports the malformed access that stopped the reader — a page
// outside [0, NumPages) — wrapping ErrBadTrace; nil otherwise. Such a
// reader is Exhausted, never rewinds, and did not yield the op holding
// the bad access.
func (t *Reader) Err() error { return t.err }

// Name implements workload.Workload.
func (t *Reader) Name() string { return "trace-replay" }

// NumPages implements workload.Workload.
func (t *Reader) NumPages() int64 { return t.numPages }

// Content implements workload.Workload.
func (t *Reader) Content() corpus.Profile { return t.content }

// BaseOpNs implements workload.Workload. Traces do not carry the ops'
// compute cost; every replayed op costs 500 ns.
func (t *Reader) BaseOpNs() float64 { return 500 }

// Replays counts how many times the trace has wrapped around.
func (t *Reader) Replays() int64 { return t.replays }

// NextOp implements workload.Workload: it returns the accesses of the
// next recorded op, rewinding at end of trace when possible. A trace with
// no access events (malformed or empty) yields empty ops rather than
// looping: at most one rewind happens per call. Every page it yields lies
// in [0, NumPages): an access outside counts as malformed bytes (see Err).
func (t *Reader) NextOp(buf []workload.Access) []workload.Access {
	return t.nextOp(buf, true)
}

func (t *Reader) nextOp(buf []workload.Access, mayRewind bool) []workload.Access {
	if t.err != nil {
		return buf
	}
	start := len(buf)
	if !t.pending {
		// Consume the leading op marker (or rewind at EOF).
		v, err := binary.ReadUvarint(t.r)
		if err != nil || v != 0 {
			if !mayRewind || !t.rewind() {
				t.exhausted = true
				return buf
			}
			mayRewind = false
			if v, err = binary.ReadUvarint(t.r); err != nil || v != 0 {
				t.exhausted = true
				return buf
			}
		}
		t.pending = true
	}
	for {
		v, err := binary.ReadUvarint(t.r)
		if err != nil {
			// End of trace: the open op ends here.
			t.pending = false
			if len(buf) == 0 && mayRewind && t.rewind() {
				return t.nextOp(buf, false)
			}
			if len(buf) == 0 {
				// A trailing bare marker with nothing after it: dead end.
				t.exhausted = true
			}
			return buf
		}
		if v == 0 {
			// Next op begins; leave it pending.
			return buf
		}
		write := v&1 == 1
		zz := (v >> 1) - 1
		delta := int64(zz>>1) ^ -int64(zz&1)
		t.lastPage += delta
		if t.lastPage < 0 || t.lastPage >= t.numPages {
			t.err = fmt.Errorf("%w: page %d outside [0, %d)", ErrBadTrace, t.lastPage, t.numPages)
			t.exhausted, t.pending = true, false
			return buf[:start]
		}
		buf = append(buf, workload.Access{Page: mem.PageID(t.lastPage), Write: write})
	}
}

// rewind restarts the trace if the source supports seeking.
func (t *Reader) rewind() bool {
	s, ok := t.src.(io.Seeker)
	if !ok {
		return false
	}
	if _, err := s.Seek(0, io.SeekStart); err != nil {
		return false
	}
	if err := t.readHeader(); err != nil {
		return false
	}
	t.replays++
	return true
}

// Record drives wl for ops operations through a Recorder, writing the
// trace to w, and returns the closed writer for its counts.
func Record(w io.Writer, wl workload.Workload, ops int64) (*Writer, error) {
	r, err := NewRecorder(w, wl)
	if err != nil {
		return nil, err
	}
	var buf []workload.Access
	for i := int64(0); i < ops; i++ {
		buf = r.NextOp(buf[:0])
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return r.tw, nil
}

// Recorder wraps a workload, recording every op it produces to a trace
// writer while passing it through unchanged — `tee` for access streams.
type Recorder struct {
	workload.Workload
	tw  *Writer
	err error
}

// NewRecorder wraps wl, writing its trace to w.
func NewRecorder(w io.Writer, wl workload.Workload) (*Recorder, error) {
	tw, err := NewWriter(w, wl.NumPages(), wl.Content())
	if err != nil {
		return nil, err
	}
	return &Recorder{Workload: wl, tw: tw}, nil
}

// NextOp implements workload.Workload.
func (r *Recorder) NextOp(buf []workload.Access) []workload.Access {
	buf = r.Workload.NextOp(buf)
	if r.err != nil {
		return buf
	}
	if err := r.tw.BeginOp(); err != nil {
		r.err = err
		return buf
	}
	for _, a := range buf {
		if err := r.tw.Access(a.Page, a.Write); err != nil {
			r.err = err
			return buf
		}
	}
	return buf
}

// Close flushes the underlying trace and reports any deferred write error.
func (r *Recorder) Close() error {
	if err := r.tw.Close(); err != nil {
		return err
	}
	return r.err
}
