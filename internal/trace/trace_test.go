package trace

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	wl := workload.Memcached(workload.DriverYCSB, 1024, 2*mem.RegionPages, 5)
	var buf bytes.Buffer
	tw, err := Record(&buf, wl, 500)
	if err != nil {
		t.Fatal(err)
	}
	if tw.Ops() != 500 || tw.Events() == 0 {
		t.Fatalf("ops=%d events=%d", tw.Ops(), tw.Events())
	}

	// Replaying must produce the identical stream.
	wl2 := workload.Memcached(workload.DriverYCSB, 1024, 2*mem.RegionPages, 5)
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPages() != wl.NumPages() || tr.Content() != wl.Content() {
		t.Fatalf("header mismatch: %d/%v", tr.NumPages(), tr.Content())
	}
	var a, b []workload.Access
	for i := 0; i < 500; i++ {
		a = wl2.NextOp(a[:0])
		b = tr.NextOp(b[:0])
		if len(a) != len(b) {
			t.Fatalf("op %d: %d vs %d accesses", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("op %d access %d: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
}

func TestReplayWrapsAround(t *testing.T) {
	wl := workload.DefaultMasim(32, 100, 1)
	var buf bytes.Buffer
	if _, err := Record(&buf, wl, 50); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b []workload.Access
	for i := 0; i < 175; i++ {
		b = tr.NextOp(b[:0])
		if len(b) == 0 {
			t.Fatalf("op %d: empty op during wrap-around replay", i)
		}
	}
	if tr.Replays() < 3 {
		t.Fatalf("replays = %d, want >= 3 after 175 ops of a 50-op trace", tr.Replays())
	}
}

func TestNoSeekerEndsGracefully(t *testing.T) {
	wl := workload.DefaultMasim(32, 100, 1)
	var buf bytes.Buffer
	if _, err := Record(&buf, wl, 10); err != nil {
		t.Fatal(err)
	}
	// Wrap in a non-seeking reader.
	tr, err := NewReader(io.NopCloser(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	var b []workload.Access
	nonEmpty := 0
	for i := 0; i < 20; i++ {
		b = tr.NextOp(b[:0])
		if len(b) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 10 {
		t.Fatalf("replayed %d ops from a 10-op non-seekable trace", nonEmpty)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("BOGUS-HEADER-123"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	for _, n := range []int64{0, -1} {
		var buf bytes.Buffer
		tw, err := NewWriter(&buf, n, corpus.Mixed)
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil { // flush the header
			t.Fatal(err)
		}
		if _, err := NewReader(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("numPages %d: err = %v, want ErrBadTrace", n, err)
		}
	}
}

// TestHeaderBounds: a header's page count and content byte are outside
// input. A count above mem.MaxPages and a byte that names no corpus
// profile are malformed, refused before anything is sized by them.
func TestHeaderBounds(t *testing.T) {
	header := func(pages int64, content corpus.Profile) []byte {
		var buf bytes.Buffer
		tw, err := NewWriter(&buf, pages, content)
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		pages   int64
		content corpus.Profile
	}{
		{mem.MaxPages + 1, corpus.Mixed},
		{1 << 40, corpus.Mixed},
		{8, corpus.Regional + 1},
		{8, 255},
	} {
		if _, err := NewReader(bytes.NewReader(header(tc.pages, tc.content))); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%d pages, profile %d: err = %v, want ErrBadTrace", tc.pages, tc.content, err)
		}
	}
	for _, p := range corpus.Profiles() {
		if _, err := NewReader(bytes.NewReader(header(mem.MaxPages, p))); err != nil {
			t.Errorf("%d pages, profile %v: %v", mem.MaxPages, p, err)
		}
	}
}

// TestOutOfRangePageStopsReader: an access outside [0, NumPages) is
// malformed bytes. The op holding it is not yielded, the reader reports
// it through Err and is Exhausted, and it does not rewind past it.
func TestOutOfRangePageStopsReader(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, 8, corpus.Mixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []mem.PageID{3, 7, 8} { // ops {3} and {7, 8}: 8 is out of range
		if p != 8 {
			if err := tw.BeginOp(); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Access(p, false); err != nil {
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
	var b []workload.Access
	if b = tr.NextOp(b[:0]); len(b) != 1 || b[0].Page != 3 || tr.Err() != nil {
		t.Fatalf("first op = %+v, err %v; want page 3, no error", b, tr.Err())
	}
	for i := 0; i < 3; i++ {
		if b = tr.NextOp(b[:0]); len(b) != 0 {
			t.Fatalf("call %d after the first op yielded %+v; want nothing", i, b)
		}
	}
	if !errors.Is(tr.Err(), ErrBadTrace) || !tr.Exhausted() || tr.Replays() != 0 {
		t.Fatalf("err %v, exhausted %v, replays %d; want ErrBadTrace, true, 0", tr.Err(), tr.Exhausted(), tr.Replays())
	}
}

func TestCompactness(t *testing.T) {
	// Delta+varint should keep sequential-ish traces near 2 bytes/access.
	wl := workload.NewPageRank(16384, 8, 1)
	var buf bytes.Buffer
	tw, err := Record(&buf, wl, 2000)
	if err != nil {
		t.Fatal(err)
	}
	perAccess := float64(buf.Len()) / float64(tw.Events())
	if perAccess > 3.0 {
		t.Fatalf("trace uses %.2f bytes/access; want < 3", perAccess)
	}
}

func TestWriterAfterClose(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, 10, corpus.Mixed)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tw.BeginOp(); err == nil {
		t.Fatal("BeginOp after Close should fail")
	}
	if err := tw.Access(1, false); err == nil {
		t.Fatal("Access after Close should fail")
	}
}

func TestTraceDrivesSimulation(t *testing.T) {
	// A recorded trace must be usable as a workload end-to-end.
	wl := workload.DefaultMasim(mem.RegionPages, 1000, 2)
	var buf bytes.Buffer
	if _, err := Record(&buf, wl, 3000); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var w workload.Workload = tr
	if w.NumPages() != 3*mem.RegionPages {
		t.Fatalf("NumPages = %d", w.NumPages())
	}
}

// TestRecordGolden pins the trace bytes of two recordings, and shows that
// Record and a Recorder driven op by op — what `tierscape -record` does —
// write the same ones.
func TestRecordGolden(t *testing.T) {
	for _, tc := range []struct {
		name         string
		wl           func() workload.Workload
		ops          int64
		bytes, evts  int64
		sha256Digest string
	}{
		{"masim", func() workload.Workload { return workload.DefaultMasim(64, 500, 3) }, 3000, 11258, 6000,
			"b9c13d7d54542d6e517163932d0814f454a3745caabcb627617dead9e90fa2b7"},
		{"memcached", func() workload.Workload { return workload.Memcached(workload.DriverYCSB, 1024, 4*512, 5) }, 3000, 11779, 6000,
			"00df8ac87a36550aa44068c2968799261847115af35ce64dc9efab05030ff166"},
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
	var b []workload.Access
	for i := 0; i < 100; i++ {
		b = rec.NextOp(nil)
		live = append(live, b)
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
		got := tr.NextOp(nil)
		if len(got) != len(want) {
			t.Fatalf("op %d: %d vs %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("op %d access %d mismatch", i, j)
			}
		}
	}
}

func TestEmptyOpsTraceTerminates(t *testing.T) {
	// Regression (found by FuzzReaderRobust): a trace whose body is only
	// op markers — no accesses — must yield empty ops, not recurse
	// forever through rewinds.
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, 10, corpus.Mixed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tw.BeginOp(); err != nil {
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
}

func TestReaderWorkloadAccessors(t *testing.T) {
	wl := workload.DefaultMasim(16, 50, 1)
	var buf bytes.Buffer
	if _, err := Record(&buf, wl, 5); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "trace-replay" {
		t.Fatalf("Name = %q", tr.Name())
	}
	if tr.BaseOpNs() != 500 {
		t.Fatalf("BaseOpNs = %v", tr.BaseOpNs())
	}
}
