package trace

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/workload"
)

// FuzzReaderRobust feeds arbitrary bytes to the trace reader: it must
// never panic, a header it accepts must name at most mem.MaxPages pages,
// a known content profile and a name of at most maxName bytes (a manager
// is sized and filled by them), the ops it produces must end, each within
// maxOpAccesses accesses at a finite non-negative cost, and every page it
// yields must lie in [0, NumPages) — the profiler and the manager index
// by it.
func FuzzReaderRobust(f *testing.F) {
	// Real traces, narrow and wide, and some garbage.
	f.Add(record(f, workload.DefaultMasim(16, 50, 1), 20))
	f.Add(record(f, workload.Redis(2*narrowPages, 1), 20))
	f.Add([]byte("TSTR\x02\x00\xff\xff\xff\xff\xff\xff\xff\xff\x00garbage"))
	f.Add([]byte{})
	hdr := rawHeader(version, 1024, corpus.Mixed, "fuzz")
	// A v1 trace: one op whose single access has delta -600.
	f.Add([]byte("TSTR\x01\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\xe0\x12"))
	// 2^40 pages; then 1024 pages of content profile 7, one past Regional.
	f.Add(rawHeader(version, 1<<40, corpus.Mixed, ""))
	f.Add(rawHeader(version, 1024, corpus.Regional+1, ""))
	// A name one byte over the bound.
	f.Add(rawHeader(version, 1024, corpus.Mixed, strings.Repeat("n", maxName+1)))
	// An op of one access more than the bound.
	f.Add(rawOp(slices.Clone(hdr), maxOpAccesses+1, ns(1)))
	// NaN, infinite and negative costs.
	f.Add(rawOp(slices.Clone(hdr), 1, ns(math.NaN()), 2))
	f.Add(rawOp(slices.Clone(hdr), 1, ns(math.Inf(1)), 2))
	f.Add(rawOp(slices.Clone(hdr), 1, ns(-1), 2))
	// A page at NumPages, after a good op.
	f.Add(rawOp(rawOp(slices.Clone(hdr), 1, ns(1), 2), 1, nil, 1024<<1))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // malformed header rejected: fine
		}
		if tr.NumPages() > mem.MaxPages || !slices.Contains(corpus.Profiles(), tr.Content()) || len(tr.Name()) > maxName {
			t.Fatalf("accepted a header of %d pages, profile %d, name of %d bytes", tr.NumPages(), tr.Content(), len(tr.Name()))
		}
		var b []workload.Access
		for !tr.Exhausted() {
			b = tr.NextOp(b[:0])
			if len(b) > maxOpAccesses {
				t.Fatalf("yielded an op of %d accesses", len(b))
			}
			for _, a := range b {
				if a.Page < 0 || int64(a.Page) >= tr.NumPages() {
					t.Fatalf("yielded page %d outside [0, %d)", a.Page, tr.NumPages())
				}
			}
			if c := tr.BaseOpNs(); !(c >= 0) || math.IsInf(c, 0) {
				t.Fatalf("yielded base op cost %v", c)
			}
			if tr.Ops() > int64(len(data)) {
				t.Fatalf("%d ops from %d bytes", tr.Ops(), len(data))
			}
		}
	})
}
