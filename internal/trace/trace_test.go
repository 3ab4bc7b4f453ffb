package trace

import (
	"bytes"
	"errors"
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
		if _, err := NewWriter(&buf, n, corpus.Mixed); err != nil {
			t.Fatal(err)
		}
		if _, err := NewReader(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("numPages %d: err = %v, want ErrBadTrace", n, err)
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
