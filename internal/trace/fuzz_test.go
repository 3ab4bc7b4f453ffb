package trace

import (
	"bytes"
	"slices"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/workload"
)

// FuzzReaderRobust feeds arbitrary bytes to the trace reader: it must
// never panic, a header it accepts must name at most mem.MaxPages pages
// and a known content profile (a manager is sized and filled by them),
// any ops it produces must terminate, and every page it yields must lie
// in [0, NumPages) — the profiler and the manager index by it.
func FuzzReaderRobust(f *testing.F) {
	// Seed with a real trace and some garbage.
	var buf bytes.Buffer
	if _, err := Record(&buf, workload.DefaultMasim(16, 50, 1), 20); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("TSTR\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\x00garbage"))
	f.Add([]byte{})
	// One op whose single access has delta -600: page -600 of 1024.
	f.Add([]byte("TSTR\x01\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\xe0\x12"))
	// 2^40 pages; then 1024 pages of content profile 7, one past Regional.
	f.Add([]byte("TSTR\x01\x00\x00\x00\x00\x00\x00\x01\x00\x00\x04"))
	f.Add([]byte("TSTR\x01\x00\x00\x04\x00\x00\x00\x00\x00\x00\x07\x00\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // malformed header rejected: fine
		}
		if tr.NumPages() > mem.MaxPages || !slices.Contains(corpus.Profiles(), tr.Content()) {
			t.Fatalf("accepted a header of %d pages, profile %d", tr.NumPages(), tr.Content())
		}
		var b []workload.Access
		for i := 0; i < 100; i++ {
			b = tr.NextOp(b[:0])
			for _, a := range b {
				if a.Page < 0 || int64(a.Page) >= tr.NumPages() {
					t.Fatalf("yielded page %d outside [0, %d)", a.Page, tr.NumPages())
				}
			}
			if len(b) == 0 && tr.Replays() == 0 {
				break // exhausted
			}
			if tr.Replays() > 2 {
				break
			}
		}
	})
}
