package trace

import (
	"bytes"
	"io"
	"testing"

	"tierscape/internal/mem"
	"tierscape/internal/workload"
)

// noSeek strips the Seek method from a reader, modeling a pipe/socket
// source for which rewinding is impossible.
type noSeek struct{ io.Reader }

// TestStreamMatchesReader: a Stream over the recorded bytes delivers the
// identical op sequence as a rewinding Reader (first pass), then drains.
func TestStreamMatchesReader(t *testing.T) {
	wl := workload.Memcached(workload.DriverYCSB, 1024, 2*mem.RegionPages, 5)
	var buf bytes.Buffer
	if _, err := Record(&buf, wl, 300); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(noSeek{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != "trace-stream" {
		t.Fatalf("name = %q", st.Name())
	}
	if st.NumPages() != wl.NumPages() || st.Content() != wl.Content() {
		t.Fatalf("header mismatch: %d/%v", st.NumPages(), st.Content())
	}
	var a, b []workload.Access
	for i := 0; i < 300; i++ {
		if st.Exhausted() {
			t.Fatalf("stream exhausted early at op %d", i)
		}
		a = rd.NextOp(a[:0])
		b = st.NextOp(b[:0])
		if len(a) != len(b) {
			t.Fatalf("op %d: %d vs %d accesses", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("op %d access %d: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
	// Drained: empty ops forever, Exhausted latches.
	for i := 0; i < 3; i++ {
		if b = st.NextOp(b[:0]); len(b) != 0 {
			t.Fatalf("post-drain op %d returned %d accesses", i, len(b))
		}
		if !st.Exhausted() {
			t.Fatal("Exhausted() = false after drain")
		}
	}
}

// TestStreamNeverRewinds: even over a seekable source, a Stream consumes
// the trace once — unlike Reader, which wraps around.
func TestStreamNeverRewinds(t *testing.T) {
	wl := workload.DefaultMasim(32, 100, 1)
	var buf bytes.Buffer
	if _, err := Record(&buf, wl, 40); err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(bytes.NewReader(buf.Bytes())) // seekable on purpose
	if err != nil {
		t.Fatal(err)
	}
	var b []workload.Access
	n := 0
	for i := 0; i < 100; i++ {
		if b = st.NextOp(b[:0]); len(b) > 0 {
			n++
		}
	}
	if n != 40 {
		t.Fatalf("stream yielded %d non-empty ops, want exactly the 40 recorded", n)
	}
	if !st.Exhausted() {
		t.Fatal("stream over a seekable source must still exhaust")
	}
}

// TestReaderExhaustedOnUnseekableSource: the underlying Reader reports
// exhaustion when it cannot rewind, and never does when it can.
func TestReaderExhaustedOnUnseekableSource(t *testing.T) {
	wl := workload.DefaultMasim(32, 100, 2)
	var buf bytes.Buffer
	if _, err := Record(&buf, wl, 10); err != nil {
		t.Fatal(err)
	}

	unseekable, err := NewReader(noSeek{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	seekable, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b []workload.Access
	for i := 0; i < 30; i++ {
		b = unseekable.NextOp(b[:0])
		b = seekable.NextOp(b[:0])
	}
	if !unseekable.Exhausted() {
		t.Fatal("unseekable reader driven past EOF must report Exhausted")
	}
	if seekable.Exhausted() {
		t.Fatal("seekable reader rewound; must not report Exhausted")
	}
	if seekable.Replays() == 0 {
		t.Fatal("seekable reader should have wrapped")
	}
}
