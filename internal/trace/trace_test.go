package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/workload"
)

// rawHeader builds a header byte by byte, so tests can write what a
// Writer refuses to.
func rawHeader(version uint16, pages uint64, content corpus.Profile, name string) []byte {
	b := append([]byte(magic), 0, 0)
	binary.LittleEndian.PutUint16(b[4:], version)
	b = binary.LittleEndian.AppendUint64(b, pages)
	b = append(b, byte(content))
	b = binary.AppendUvarint(b, uint64(len(name)))
	return append(b, name...)
}

// rawOp appends one op: its header, its cost when cost is not nil, and
// its accesses (page<<1|write) as u16s.
func rawOp(b []byte, accesses uint64, cost *float64, vals ...uint16) []byte {
	hdr := accesses << 1
	if cost != nil {
		hdr |= 1
	}
	b = binary.AppendUvarint(b, hdr)
	if cost != nil {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*cost))
	}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint16(b, v)
	}
	return b
}

func ns(v float64) *float64 { return &v }

// record records ops of wl into memory.
func record(t testing.TB, wl workload.Workload, ops int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Record(&buf, wl, ops); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameOps steps want and got op by op — accesses and the BaseOpNs read
// after each op — and fails on the first difference.
func sameOps(t *testing.T, want, got workload.Workload, ops int) {
	t.Helper()
	var a, b []workload.Access
	for i := 0; i < ops; i++ {
		a = want.NextOp(a[:0])
		b = got.NextOp(b[:0])
		if !slices.Equal(a, b) || want.BaseOpNs() != got.BaseOpNs() {
			t.Fatalf("op %d: %v (base %v), want %v (base %v)", i, b, got.BaseOpNs(), a, want.BaseOpNs())
		}
	}
}

func TestRoundTrip(t *testing.T) {
	mk := func() workload.Workload { return workload.Memcached(workload.DriverYCSB, 1024, 2*mem.RegionPages, 5) }
	wl := mk()
	var buf bytes.Buffer
	tw, err := Record(&buf, wl, 500)
	if err != nil {
		t.Fatal(err)
	}
	if tw.Ops() != 500 || tw.Events() == 0 {
		t.Fatalf("ops=%d events=%d", tw.Ops(), tw.Events())
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPages() != wl.NumPages() || tr.Content() != wl.Content() || tr.Name() != wl.Name() {
		t.Fatalf("header mismatch: %d/%v/%q", tr.NumPages(), tr.Content(), tr.Name())
	}
	sameOps(t, mk(), tr, 500)
	if tr.Exhausted() || tr.Ops() != 500 {
		t.Fatalf("after the last op: exhausted %v, ops %d; want false, 500", tr.Exhausted(), tr.Ops())
	}
	if b := tr.NextOp(nil); len(b) != 0 || !tr.Exhausted() || tr.Err() != nil {
		t.Fatalf("past the last op: %v, exhausted %v, err %v; want nothing, true, nil", b, tr.Exhausted(), tr.Err())
	}
}

// TestAccessWidth: an access is a u16 up to 2^15 pages and a u32 above,
// decided by the header alone, and both round-trip every page — the last
// one included.
func TestAccessWidth(t *testing.T) {
	for _, tc := range []struct {
		pages int64
		width int
	}{{narrowPages, 2}, {narrowPages + 1, 4}, {mem.MaxPages, 4}} {
		var buf bytes.Buffer
		tw, err := NewWriter(&buf, tc.pages, corpus.Mixed, "w")
		if err != nil {
			t.Fatal(err)
		}
		op := []workload.Access{{Page: 0, Write: true}, {Page: mem.PageID(tc.pages - 1)}, {Page: mem.PageID(tc.pages - 1), Write: true}}
		if err := tw.WriteOp(op, 1); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		if body := buf.Len() - len(rawHeader(version, 0, 0, "w")); body != 1+8+3*tc.width {
			t.Errorf("%d pages: op of %d bytes, want %d", tc.pages, body, 1+8+3*tc.width)
		}
		tr, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.NextOp(nil); !slices.Equal(got, op) {
			t.Errorf("%d pages: replayed %v, want %v", tc.pages, got, op)
		}
	}
}

// TestBaseOpNsPerOp: the cost is stored only when it changes, and the
// replay reports each op's own.
func TestBaseOpNsPerOp(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, 8, corpus.Mixed, "costs")
	if err != nil {
		t.Fatal(err)
	}
	costs := []float64{300, 300, 0, 15000, 15000, 300}
	for i, c := range costs {
		if err := tw.WriteOp([]workload.Access{{Page: mem.PageID(i)}}, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	const changes = 4
	if body := buf.Len() - len(rawHeader(version, 0, 0, "costs")); body != len(costs)*3+changes*8 {
		t.Errorf("body of %d bytes, want %d: the cost is stored only when it changes", body, len(costs)*3+changes*8)
	}
	tr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range costs {
		if tr.NextOp(nil); tr.BaseOpNs() != c {
			t.Errorf("op %d: BaseOpNs %v, want %v", i, tr.BaseOpNs(), c)
		}
	}
}

func TestNoSeekerEndsGracefully(t *testing.T) {
	raw := record(t, workload.DefaultMasim(32, 100, 1), 10)
	tr, err := NewReader(io.NopCloser(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	var b []workload.Access
	for i := 0; i < 20; i++ {
		if b = tr.NextOp(b[:0]); len(b) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 10 || !tr.Exhausted() || tr.Err() != nil {
		t.Fatalf("replayed %d ops from a 10-op trace, exhausted %v, err %v", nonEmpty, tr.Exhausted(), tr.Err())
	}
}

// noSeek strips the Seek method from a reader, modeling a pipe or socket.
type noSeek struct{ io.Reader }

// TestStreamMatchesReader: a trace arriving on a pipe-like source replays
// the ops it does over a seekable one, then drains the same way.
func TestStreamMatchesReader(t *testing.T) {
	raw := record(t, workload.Memcached(workload.DriverYCSB, 1024, 2*mem.RegionPages, 5), 300)
	rd, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewReader(noSeek{bytes.NewReader(raw)})
	if err != nil {
		t.Fatal(err)
	}
	sameOps(t, rd, st, 300)
	for i := 0; i < 3; i++ {
		if b := st.NextOp(nil); len(b) != 0 || !st.Exhausted() {
			t.Fatalf("post-drain op %d returned %d accesses, exhausted %v", i, len(b), st.Exhausted())
		}
	}
}

// TestStreamNeverRewinds: even over a seekable source a trace is consumed
// once — the replay of a 40-op recording is 40 ops, however many more are
// asked for.
func TestStreamNeverRewinds(t *testing.T) {
	raw := record(t, workload.DefaultMasim(32, 100, 1), 40)
	tr, err := NewReader(bytes.NewReader(raw)) // seekable on purpose
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var b []workload.Access
	for i := 0; i < 175; i++ {
		if b = tr.NextOp(b[:0]); len(b) > 0 {
			n++
		}
	}
	if n != 40 || tr.Ops() != 40 || !tr.Exhausted() {
		t.Fatalf("yielded %d non-empty ops (Ops %d), exhausted %v; want exactly the 40 recorded, then exhausted", n, tr.Ops(), tr.Exhausted())
	}
}

// TestReaderExhaustedOnUnseekableSource: a reader driven past the end of
// its trace reports exhaustion, over any source.
func TestReaderExhaustedOnUnseekableSource(t *testing.T) {
	raw := record(t, workload.DefaultMasim(32, 100, 2), 10)
	for _, src := range []io.Reader{noSeek{bytes.NewReader(raw)}, bytes.NewReader(raw)} {
		tr, err := NewReader(src)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			tr.NextOp(nil)
		}
		if tr.Exhausted() {
			t.Fatalf("%T: exhausted after exactly the recorded ops", src)
		}
		tr.NextOp(nil)
		if !tr.Exhausted() {
			t.Fatalf("%T: a reader driven past EOF must report Exhausted", src)
		}
	}
}

func TestBadHeaderRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("BOGUS-HEADER-123"))); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("bad magic: err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("empty stream: err = %v", err)
	}
	for _, n := range []int64{0, -1} {
		if _, err := NewReader(bytes.NewReader(rawHeader(version, uint64(n), corpus.Mixed, ""))); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("numPages %d: err = %v, want ErrBadTrace", n, err)
		}
		if _, err := NewWriter(io.Discard, n, corpus.Mixed, ""); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("a writer of %d pages: err = %v, want ErrBadTrace", n, err)
		}
	}
	// A v1 file — delta varint, no cost, no name — is refused by name.
	v1 := append(rawHeader(1, 1024, corpus.Mixed, "")[:15], 0, 2)
	if _, err := NewReader(bytes.NewReader(v1)); !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 trace: err = %v, want ErrBadTrace naming version 1", err)
	}
	if _, err := NewReader(bytes.NewReader(rawHeader(3, 1024, corpus.Mixed, ""))); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("v3 trace: err = %v, want ErrBadTrace", err)
	}
	if _, err := NewReader(bytes.NewReader(rawHeader(version, 1024, corpus.Mixed, "name")[:18])); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("truncated name: err = %v, want ErrBadTrace", err)
	}
}

// TestHeaderBounds: a header's page count, content byte and name length
// are outside input. A count above mem.MaxPages, a byte that names no
// corpus profile and a name longer than maxName are malformed, refused
// before anything is sized by them — and never written.
func TestHeaderBounds(t *testing.T) {
	long := strings.Repeat("n", maxName+1)
	for _, tc := range []struct {
		pages   uint64
		content corpus.Profile
		name    string
	}{
		{mem.MaxPages + 1, corpus.Mixed, ""},
		{1 << 40, corpus.Mixed, ""},
		{8, corpus.Regional + 1, ""},
		{8, 255, ""},
		{8, corpus.Mixed, long},
	} {
		if _, err := NewReader(bytes.NewReader(rawHeader(version, tc.pages, tc.content, tc.name))); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%d pages, profile %d, name of %d bytes: err = %v, want ErrBadTrace", tc.pages, tc.content, len(tc.name), err)
		}
		if _, err := NewWriter(io.Discard, int64(tc.pages), tc.content, tc.name); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%d pages, profile %d, name of %d bytes: writer err = %v, want ErrBadTrace", tc.pages, tc.content, len(tc.name), err)
		}
	}
	// A name length far beyond the bound is refused before it is allocated.
	huge := append(rawHeader(version, 8, corpus.Mixed, "")[:15], binary.AppendUvarint(nil, 1<<62)...)
	if _, err := NewReader(bytes.NewReader(huge)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("a name of 2^62 bytes: err = %v, want ErrBadTrace", err)
	}
	for _, p := range corpus.Profiles() {
		if _, err := NewReader(bytes.NewReader(rawHeader(version, mem.MaxPages, p, long[:maxName]))); err != nil {
			t.Errorf("%d pages, profile %v: %v", mem.MaxPages, p, err)
		}
	}
}

// TestReaderRefusesBadOps: every field of an op is outside input. Each
// malformed op below stops the reader with ErrBadTrace after the good op
// before it, without yielding the bad one.
func TestReaderRefusesBadOps(t *testing.T) {
	good := rawOp(rawHeader(version, 8, corpus.Mixed, "ops"), 1, ns(100), 3<<1)
	for _, tc := range []struct {
		name string
		op   []byte
	}{
		{"too many accesses", rawOp(nil, maxOpAccesses+1, nil)},
		{"NaN cost", rawOp(nil, 1, ns(math.NaN()), 2)},
		{"infinite cost", rawOp(nil, 1, ns(math.Inf(1)), 2)},
		{"negative cost", rawOp(nil, 1, ns(-1), 2)},
		{"page past NumPages", rawOp(nil, 2, nil, 7<<1, 8<<1|1)},
		{"truncated accesses", rawOp(nil, 3, nil, 2, 4)},
		{"truncated cost", rawOp(nil, 1, ns(5), 2)[:4]},
		{"truncated header", []byte{0x80}},
	} {
		tr, err := NewReader(bytes.NewReader(append(slices.Clone(good), tc.op...)))
		if err != nil {
			t.Fatal(err)
		}
		if b := tr.NextOp(nil); len(b) != 1 || b[0].Page != 3 || tr.Err() != nil {
			t.Fatalf("%s: first op = %+v, err %v; want page 3, no error", tc.name, b, tr.Err())
		}
		for i := 0; i < 3; i++ {
			if b := tr.NextOp(nil); len(b) != 0 {
				t.Fatalf("%s: call %d after the first op yielded %+v; want nothing", tc.name, i, b)
			}
		}
		if !errors.Is(tr.Err(), ErrBadTrace) || !tr.Exhausted() || tr.Ops() != 1 {
			t.Errorf("%s: err %v, exhausted %v, ops %d; want ErrBadTrace, true, 1", tc.name, tr.Err(), tr.Exhausted(), tr.Ops())
		}
	}
	// The first op must carry its cost.
	tr, err := NewReader(bytes.NewReader(rawOp(rawHeader(version, 8, corpus.Mixed, ""), 1, nil, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if b := tr.NextOp(nil); len(b) != 0 || !errors.Is(tr.Err(), ErrBadTrace) {
		t.Errorf("a first op without a cost: yielded %v, err %v; want nothing, ErrBadTrace", b, tr.Err())
	}
}

// TestOutOfRangePageStopsReader: an access outside [0, NumPages) in the
// middle of an op is malformed bytes. The op holding it is not yielded,
// the reader reports it through Err and is Exhausted.
func TestOutOfRangePageStopsReader(t *testing.T) {
	raw := rawOp(rawHeader(version, 8, corpus.Mixed, ""), 1, ns(1), 3<<1)
	raw = rawOp(raw, 2, nil, 7<<1, 8<<1) // 8 is out of range
	tr, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var b []workload.Access
	if b = tr.NextOp(b[:0]); len(b) != 1 || b[0].Page != 3 || tr.Err() != nil {
		t.Fatalf("first op = %+v, err %v; want page 3, no error", b, tr.Err())
	}
	if b = tr.NextOp(b[:0]); len(b) != 0 {
		t.Fatalf("the bad op yielded %+v; want nothing", b)
	}
	if !errors.Is(tr.Err(), ErrBadTrace) || !tr.Exhausted() {
		t.Fatalf("err %v, exhausted %v; want ErrBadTrace, true", tr.Err(), tr.Exhausted())
	}
}

// TestRecordRefusesOutOfRangePages: a page outside the workload's own
// range would not survive the encoding, so the writer refuses the op and
// Record stops there with the error instead of storing a wrong page.
func TestRecordRefusesOutOfRangePages(t *testing.T) {
	src := &countOps{Workload: offsetPages{workload.Redis(4096, 3)}}
	if _, err := Record(io.Discard, src, 100); !errors.Is(err, ErrBadTrace) || src.ops != 1 {
		t.Errorf("err = %v after %d ops; want ErrBadTrace after the first", err, src.ops)
	}
}

// offsetPages moves every access one workload's worth past its pages.
type offsetPages struct{ workload.Workload }

func (o offsetPages) NextOp(buf []workload.Access) []workload.Access {
	start := len(buf)
	buf = o.Workload.NextOp(buf)
	for i := start; i < len(buf); i++ {
		buf[i].Page += mem.PageID(o.NumPages())
	}
	return buf
}

// countOps counts the ops drawn from a workload.
type countOps struct {
	workload.Workload
	ops int
}

func (c *countOps) NextOp(buf []workload.Access) []workload.Access {
	c.ops++
	return c.Workload.NextOp(buf)
}

func TestCompactness(t *testing.T) {
	// Fixed width keeps a narrow trace near 2 bytes an access.
	wl := workload.NewPageRankOn(workload.NewRMat(16384, 8, 1))
	var buf bytes.Buffer
	tw, err := Record(&buf, wl, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if perAccess := float64(buf.Len()) / float64(tw.Events()); perAccess > 3.0 {
		t.Fatalf("trace uses %.2f bytes/access; want < 3", perAccess)
	}
}

func TestWriterAfterClose(t *testing.T) {
	tw, err := NewWriter(io.Discard, 10, corpus.Mixed, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteOp([]workload.Access{{Page: 1}}, 1); err == nil {
		t.Fatal("WriteOp after Close should fail")
	}
}

func TestTraceDrivesSimulation(t *testing.T) {
	// A recorded trace must be usable as a workload end-to-end.
	tr, err := NewReader(bytes.NewReader(record(t, workload.DefaultMasim(mem.RegionPages, 1000, 2), 3000)))
	if err != nil {
		t.Fatal(err)
	}
	var w workload.Workload = tr
	if w.NumPages() != 3*mem.RegionPages {
		t.Fatalf("NumPages = %d", w.NumPages())
	}
}

// TestRecordGolden pins the trace bytes of three recordings — one of
// them u32-wide — and shows that Record and a Recorder driven op by op,
// what `tierscape -record` does, write the same ones.
func TestRecordGolden(t *testing.T) {
	for _, tc := range []struct {
		name         string
		wl           func() workload.Workload
		ops          int64
		bytes, evts  int64
		sha256Digest string
	}{
		{"masim", func() workload.Workload { return workload.DefaultMasim(64, 500, 3) }, 3000, 15029, 6000,
			"cddbb8dd35e4202bc0a54e60ae21ebc93285d873f8e5264c2efd2ba69a5feddf"},
		{"memcached", func() workload.Workload { return workload.Memcached(workload.DriverYCSB, 1024, 4*512, 5) }, 3000, 15038, 6000,
			"c93666b01e74e7677028b39dd3312f2c1fd9af3272c76770b0756e60ca957562"},
		{"redis-wide", func() workload.Workload { return workload.Redis(2*narrowPages, 5) }, 3000, 27034, 6000,
			"019e9369834716f6baa212359b773b3711c4afb548328962cf605a48cf4b8e40"},
	} {
		var rec bytes.Buffer
		tw, err := Record(&rec, tc.wl(), tc.ops)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(rec.Bytes())); int64(rec.Len()) != tc.bytes || tw.Ops() != tc.ops || tw.Events() != tc.evts || got != tc.sha256Digest {
			t.Errorf("%s: Record wrote %d bytes, %d ops, %d events, sha256 %s; want %d, %d, %d, %s",
				tc.name, rec.Len(), tw.Ops(), tw.Events(), got, tc.bytes, tc.ops, tc.evts, tc.sha256Digest)
		}
		var tee bytes.Buffer
		r, err := NewRecorder(&tee, tc.wl())
		if err != nil {
			t.Fatal(err)
		}
		var buf []workload.Access
		for i := int64(0); i < tc.ops; i++ {
			buf = r.NextOp(buf[:0])
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tee.Bytes(), rec.Bytes()) {
			t.Errorf("%s: a Recorder driven %d ops wrote other bytes than Record", tc.name, tc.ops)
		}
	}
}

func TestRecorderTees(t *testing.T) {
	wl := workload.DefaultMasim(32, 100, 9)
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, wl)
	if err != nil {
		t.Fatal(err)
	}
	// Drive through the recorder; collect the live stream.
	var live [][]workload.Access
	for i := 0; i < 100; i++ {
		live = append(live, rec.NextOp(nil))
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay must match the live stream.
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range live {
		if got := tr.NextOp(nil); !slices.Equal(got, want) {
			t.Fatalf("op %d: %v, want %v", i, got, want)
		}
	}
}

func TestEmptyOpsTraceTerminates(t *testing.T) {
	// Ops of no accesses replay as empty ops, one each, and then the
	// trace is exhausted.
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, 10, corpus.Mixed, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tw.WriteOp(nil, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got := tr.NextOp(nil); len(got) != 0 {
			t.Fatalf("op %d: unexpected accesses %v", i, got)
		}
	}
	if tr.Ops() != 5 || !tr.Exhausted() || tr.Err() != nil {
		t.Fatalf("ops %d, exhausted %v, err %v; want 5, true, nil", tr.Ops(), tr.Exhausted(), tr.Err())
	}
}

func TestReaderWorkloadAccessors(t *testing.T) {
	wl := workload.DefaultMasim(16, 50, 1)
	tr, err := NewReader(bytes.NewReader(record(t, wl, 5)))
	if err != nil {
		t.Fatal(err)
	}
	tr.NextOp(nil)
	if tr.Name() != wl.Name() || tr.BaseOpNs() != wl.BaseOpNs() {
		t.Fatalf("Name %q, BaseOpNs %v; want the recorded workload's %q, %v", tr.Name(), tr.BaseOpNs(), wl.Name(), wl.BaseOpNs())
	}
}
