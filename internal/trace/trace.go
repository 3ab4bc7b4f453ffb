// Package trace records and replays page-access streams. A trace captures
// exactly what the tiering system observes from a workload — its name,
// footprint and content profile, and the op-delimited stream of (page,
// read/write) events with each op's compute cost — so a replay is the run
// it recorded: the same Result, byte for byte. It is the one encoding of
// an access stream, on disk (tierscape -record/-replay, tracetool) and in
// memory (a figure's shared streams, internal/experiments).
//
// Format v2 (all fixed-width fields little-endian):
//
//	header:  magic "TSTR" | version u16 = 2 | numPages u64 | content u8 |
//	         uvarint name length | name bytes
//	op:      uvarint accesses<<1 | costChanged |
//	         [BaseOpNs float64, when costChanged] |
//	         accesses × (page<<1 | write)
//
// An op carries its BaseOpNs only when it differs from the previous op's,
// and always on the first op. An access is a u16 when the header's page
// count is at most 2^15, else a u32; the width follows from the header and
// is neither stored nor settable. Fixed width is there for replay speed,
// since a replay is on every figure's hot path: over Figure 7's streams an
// op decodes in about 100 ns, against 130–380 ns for a delta varint, for
// about a sixth more bytes.
//
// Everything a Reader takes from its source is outside input and is
// refused with ErrBadTrace before anything is sized by it: a version
// other than 2, a page count outside [1, mem.MaxPages], an unknown content
// profile, a name longer than maxName bytes, an op of more than
// maxOpAccesses accesses, a base cost that is NaN, infinite or negative,
// a first op without one, and a page outside [0, NumPages). A Writer
// refuses to write any of them.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/workload"
)

const magic = "TSTR"
const version = 2

// maxName bounds the workload name a trace header may carry, in bytes.
const maxName = 1 << 10

// maxOpAccesses bounds the accesses of one op. The largest op of any
// workload here is a graph hub's adjacency, far below it.
const maxOpAccesses = 1 << 20

// narrowPages is the largest page count whose accesses are stored as u16:
// page<<1|write of page 2^15 − 1 is 2^16 − 1.
const narrowPages = 1 << 15

// accessWidth is the bytes of one access in a trace of numPages pages.
func accessWidth(numPages int64) int {
	if numPages > narrowPages {
		return 4
	}
	return 2
}

// ErrBadTrace is returned when a trace stream is malformed.
var ErrBadTrace = errors.New("trace: malformed trace")

func badf(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadTrace}, a...)...)
}

// checkHeader refuses a header a Reader would refuse.
func checkHeader(numPages int64, content corpus.Profile, nameLen uint64) error {
	if numPages <= 0 || numPages > mem.MaxPages {
		return badf("%d pages outside [1, %d]", numPages, mem.MaxPages)
	}
	if !slices.Contains(corpus.Profiles(), content) {
		return badf("unknown content profile %d", content)
	}
	if nameLen > maxName {
		return badf("name of %d bytes, more than %d", nameLen, maxName)
	}
	return nil
}

// checkCost refuses a base op cost a Reader would refuse.
func checkCost(ns float64) error {
	if !(ns >= 0) || math.IsInf(ns, 1) {
		return badf("base op cost %v is not a finite non-negative number", ns)
	}
	return nil
}

// Writer records a workload's ops to an io.Writer.
type Writer struct {
	w        *bufio.Writer
	numPages int64
	width    int
	base     float64
	ops      int64
	events   int64
	scratch  []byte
	closed   bool
}

// NewWriter starts a trace of a workload with the given page count,
// content profile and name.
func NewWriter(w io.Writer, numPages int64, content corpus.Profile, name string) (*Writer, error) {
	if err := checkHeader(numPages, content, uint64(len(name))); err != nil {
		return nil, err
	}
	hdr := binary.LittleEndian.AppendUint16([]byte(magic), version)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(numPages))
	hdr = append(hdr, byte(content))
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: bw, numPages: numPages, width: accessWidth(numPages)}, nil
}

// WriteOp records one op: its accesses and the BaseOpNs the workload
// reported after it. An op the format cannot carry is refused whole.
func (t *Writer) WriteOp(acc []workload.Access, baseNs float64) error {
	if t.closed {
		return errors.New("trace: write after Close")
	}
	if len(acc) > maxOpAccesses {
		return badf("op of %d accesses, more than %d", len(acc), maxOpAccesses)
	}
	if err := checkCost(baseNs); err != nil {
		return err
	}
	costChanged := t.ops == 0 || baseNs != t.base
	b := t.scratch[:0]
	hdr := uint64(len(acc)) << 1
	if costChanged {
		hdr |= 1
	}
	b = binary.AppendUvarint(b, hdr)
	if costChanged {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(baseNs))
	}
	for _, a := range acc {
		if a.Page < 0 || int64(a.Page) >= t.numPages {
			return badf("page %d outside [0, %d)", a.Page, t.numPages)
		}
		v := uint32(a.Page) << 1
		if a.Write {
			v |= 1
		}
		if t.width == 4 {
			b = binary.LittleEndian.AppendUint32(b, v)
		} else {
			b = binary.LittleEndian.AppendUint16(b, uint16(v))
		}
	}
	t.scratch = b
	if _, err := t.w.Write(b); err != nil {
		return err
	}
	t.base = baseNs
	t.ops++
	t.events += int64(len(acc))
	return nil
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

// Reader replays a recorded trace as a workload.Workload, once, in the
// order its bytes arrive: a finished file, a file still being written, a
// pipe or an in-memory recording. After the last recorded op, NextOp
// yields empty ops and Exhausted reports true, the signal a resident
// driver uses to detach a finished replay. A Reader is a pure function of
// the bytes it reads.
type Reader struct {
	r         *bufio.Reader
	numPages  int64
	content   corpus.Profile
	name      string
	width     int
	base      float64
	ops       int64
	exhausted bool
	err       error
}

// NewReader opens a trace for replay. It reads the header immediately,
// blocking until those bytes arrive on pipe-like sources.
func NewReader(src io.Reader) (*Reader, error) {
	r := bufio.NewReader(src)
	var hdr [15]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, badf("%v", err)
	}
	if string(hdr[:4]) != magic {
		return nil, badf("bad magic")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != version {
		if v == 1 {
			return nil, badf("version 1 (delta varint, no base op cost or name) is no longer read; record the trace again")
		}
		return nil, badf("unsupported version %d", v)
	}
	numPages := int64(binary.LittleEndian.Uint64(hdr[6:]))
	content := corpus.Profile(hdr[14])
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, badf("name length: %v", err)
	}
	if err := checkHeader(numPages, content, nameLen); err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, badf("name: %v", err)
	}
	return &Reader{r: r, numPages: numPages, content: content, name: string(name), width: accessWidth(numPages)}, nil
}

// Exhausted reports that the trace has drained, or hit malformed bytes:
// every further NextOp yields an empty op.
func (t *Reader) Exhausted() bool { return t.exhausted }

// Err reports the malformed bytes that stopped the reader, wrapping
// ErrBadTrace; nil otherwise. Such a reader is Exhausted and did not yield
// the op holding them.
func (t *Reader) Err() error { return t.err }

// Ops returns how many ops the reader has yielded.
func (t *Reader) Ops() int64 { return t.ops }

// Name implements workload.Workload: the recorded workload's name.
func (t *Reader) Name() string { return t.name }

// NumPages implements workload.Workload.
func (t *Reader) NumPages() int64 { return t.numPages }

// Content implements workload.Workload.
func (t *Reader) Content() corpus.Profile { return t.content }

// BaseOpNs implements workload.Workload: what the recorded workload
// reported after the op NextOp last yielded.
func (t *Reader) BaseOpNs() float64 { return t.base }

// NextOp implements workload.Workload: it appends the accesses of the
// next recorded op. Every page it yields lies in [0, NumPages).
func (t *Reader) NextOp(buf []workload.Access) []workload.Access {
	if t.exhausted {
		return buf
	}
	hdr, err := binary.ReadUvarint(t.r)
	if err == io.EOF {
		t.exhausted = true
		return buf
	}
	if err != nil {
		return t.fail(buf, badf("op %d: %v", t.ops, err))
	}
	n := hdr >> 1
	if n > maxOpAccesses {
		return t.fail(buf, badf("op %d: %d accesses, more than %d", t.ops, n, maxOpAccesses))
	}
	base := t.base
	if hdr&1 != 0 {
		var b [8]byte
		if _, err := io.ReadFull(t.r, b[:]); err != nil {
			return t.fail(buf, badf("op %d: base op cost: %v", t.ops, err))
		}
		base = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		if err := checkCost(base); err != nil {
			return t.fail(buf, fmt.Errorf("op %d: %w", t.ops, err))
		}
	} else if t.ops == 0 {
		return t.fail(buf, badf("op 0 carries no base op cost"))
	}
	start := len(buf)
	for left := int(n) * t.width; left > 0; {
		want := min(left, t.r.Size())
		b, err := t.r.Peek(want)
		if len(b) < want {
			return t.fail(buf[:start], badf("op %d: truncated after %d of %d accesses: %v", t.ops, len(buf)-start, n, err))
		}
		var bad uint32
		if buf, bad = t.decode(buf, b); bad != 0 {
			return t.fail(buf[:start], badf("op %d: page %d outside [0, %d)", t.ops, bad>>1, t.numPages))
		}
		_, _ = t.r.Discard(len(b)) // bytes Peek returned: cannot fail
		left -= len(b)
	}
	t.base = base
	t.ops++
	return buf
}

// decode appends the accesses b holds. It stops at the first that names a
// page at or past NumPages and returns it (page<<1|write, never 0), else 0.
func (t *Reader) decode(buf []workload.Access, b []byte) ([]workload.Access, uint32) {
	pages := uint32(t.numPages)
	buf = slices.Grow(buf, len(b)/t.width)
	if t.width == 2 {
		for ; len(b) >= 2; b = b[2:] {
			v := uint32(binary.LittleEndian.Uint16(b))
			if v>>1 >= pages {
				return buf, v
			}
			buf = append(buf, workload.Access{Page: mem.PageID(v >> 1), Write: v&1 != 0})
		}
		return buf, 0
	}
	for ; len(b) >= 4; b = b[4:] {
		v := binary.LittleEndian.Uint32(b)
		if v>>1 >= pages {
			return buf, v
		}
		buf = append(buf, workload.Access{Page: mem.PageID(v >> 1), Write: v&1 != 0})
	}
	return buf, 0
}

// fail stops the reader for good on malformed bytes.
func (t *Reader) fail(buf []workload.Access, err error) []workload.Access {
	t.err, t.exhausted = err, true
	return buf
}

// Record drives wl for ops operations through a Recorder, writing the
// trace to w, and returns the closed writer for its counts. It stops at
// the first write error.
func Record(w io.Writer, wl workload.Workload, ops int64) (*Writer, error) {
	r, err := NewRecorder(w, wl)
	if err != nil {
		return nil, err
	}
	var buf []workload.Access
	for i := int64(0); i < ops && r.err == nil; i++ {
		buf = r.NextOp(buf[:0])
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return r.tw, nil
}

// Recorder wraps a workload, recording every op it produces — its
// accesses and the BaseOpNs it reports after it — to a trace writer while
// passing it through unchanged: `tee` for access streams.
type Recorder struct {
	workload.Workload
	tw  *Writer
	err error
}

// NewRecorder wraps wl, writing its trace to w.
func NewRecorder(w io.Writer, wl workload.Workload) (*Recorder, error) {
	tw, err := NewWriter(w, wl.NumPages(), wl.Content(), wl.Name())
	if err != nil {
		return nil, err
	}
	return &Recorder{Workload: wl, tw: tw}, nil
}

// NextOp implements workload.Workload.
func (r *Recorder) NextOp(buf []workload.Access) []workload.Access {
	start := len(buf)
	buf = r.Workload.NextOp(buf)
	if r.err == nil {
		r.err = r.tw.WriteOp(buf[start:], r.Workload.BaseOpNs())
	}
	return buf
}

// Close flushes the underlying trace and reports the first write error.
func (r *Recorder) Close() error {
	if err := r.tw.Close(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}
