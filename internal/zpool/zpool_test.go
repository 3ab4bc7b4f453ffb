package zpool

import (
	"bytes"
	"testing"
	"testing/quick"

	"tierscape/internal/stats"
)

func pools(t *testing.T) []Pool {
	t.Helper()
	var ps []Pool
	for _, n := range Managers() {
		p, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

func TestStoreLoadRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, p := range pools(t) {
		var handles []Handle
		var want [][]byte
		for i := 0; i < 200; i++ {
			size := 1 + rng.Intn(PageSize)
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(rng.Uint32())
			}
			h, err := p.Store(data)
			if err != nil {
				t.Fatalf("%s: store %d bytes: %v", p.Name(), size, err)
			}
			handles = append(handles, h)
			want = append(want, data)
		}
		for i, h := range handles {
			got, err := p.Load(h, nil)
			if err != nil {
				t.Fatalf("%s: load %d: %v", p.Name(), i, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("%s: object %d corrupted", p.Name(), i)
			}
			if sz, err := p.Size(h); err != nil || sz != len(want[i]) {
				t.Fatalf("%s: Size = %d,%v want %d", p.Name(), sz, err, len(want[i]))
			}
		}
	}
}

func TestFreeInvalidates(t *testing.T) {
	for _, p := range pools(t) {
		h, err := p.Store([]byte("hello"))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Free(h); err != nil {
			t.Fatalf("%s: free: %v", p.Name(), err)
		}
		if _, err := p.Load(h, nil); err != ErrInvalidHandle {
			t.Errorf("%s: load after free = %v, want ErrInvalidHandle", p.Name(), err)
		}
		if err := p.Free(h); err != ErrInvalidHandle {
			t.Errorf("%s: double free = %v, want ErrInvalidHandle", p.Name(), err)
		}
	}
}

func TestRejectsOversizeAndEmpty(t *testing.T) {
	for _, p := range pools(t) {
		if _, err := p.Store(make([]byte, PageSize+1)); err != ErrTooLarge {
			t.Errorf("%s: oversize store = %v, want ErrTooLarge", p.Name(), err)
		}
		if _, err := p.Store(nil); err != ErrTooLarge {
			t.Errorf("%s: empty store = %v, want ErrTooLarge", p.Name(), err)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	for _, p := range pools(t) {
		var hs []Handle
		for i := 0; i < 50; i++ {
			h, err := p.Store(make([]byte, 1000))
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		s := p.Stats()
		if s.Objects != 50 {
			t.Errorf("%s: Objects = %d, want 50", p.Name(), s.Objects)
		}
		if s.StoredBytes != 50000 {
			t.Errorf("%s: StoredBytes = %d, want 50000", p.Name(), s.StoredBytes)
		}
		if s.PoolPages <= 0 {
			t.Errorf("%s: PoolPages = %d", p.Name(), s.PoolPages)
		}
		for _, h := range hs {
			if err := p.Free(h); err != nil {
				t.Fatal(err)
			}
		}
		s = p.Stats()
		if s.Objects != 0 || s.StoredBytes != 0 {
			t.Errorf("%s: after free-all Objects=%d StoredBytes=%d", p.Name(), s.Objects, s.StoredBytes)
		}
		if s.PoolPages != 0 {
			t.Errorf("%s: after free-all PoolPages=%d, want 0", p.Name(), s.PoolPages)
		}
	}
}

func TestDensityOrdering(t *testing.T) {
	// zsmalloc must pack strictly denser than z3fold, which must beat zbud,
	// for small objects (the paper's Section 2 space-efficiency ordering).
	density := func(name string) float64 {
		p, _ := New(name)
		for i := 0; i < 1000; i++ {
			if _, err := p.Store(make([]byte, 1200)); err != nil {
				t.Fatal(err)
			}
		}
		return p.Stats().Density()
	}
	zs := density("zsmalloc")
	z3 := density("z3fold")
	zb := density("zbud")
	if !(zs > z3 && z3 > zb) {
		t.Errorf("density ordering violated: zsmalloc=%.3f z3fold=%.3f zbud=%.3f", zs, z3, zb)
	}
	if zb > 0.62 {
		t.Errorf("zbud density %.3f exceeds its 2-objects-per-page bound for 1200B objects", zb)
	}
}

func TestZbudMaxTwoPerPage(t *testing.T) {
	p := NewZbud()
	// 100 tiny objects must consume at least 50 pages.
	for i := 0; i < 100; i++ {
		if _, err := p.Store([]byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().PoolPages; got < 50 {
		t.Errorf("zbud packed 100 objects into %d pages; max 2/page allows >= 50", got)
	}
}

func TestZ3foldMaxThreePerPage(t *testing.T) {
	p := NewZ3fold()
	for i := 0; i < 99; i++ {
		if _, err := p.Store([]byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().PoolPages; got < 33 {
		t.Errorf("z3fold packed 99 objects into %d pages; max 3/page allows >= 33", got)
	}
}

func TestZsmallocDensePacking(t *testing.T) {
	p := NewZsmalloc()
	// 128-byte objects: 32 per page expected.
	for i := 0; i < 320; i++ {
		if _, err := p.Store(make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().PoolPages; got > 12 {
		t.Errorf("zsmalloc used %d pages for 320x128B; want ~10", got)
	}
}

func TestChurnProperty(t *testing.T) {
	// Property: after arbitrary store/free churn, every live object loads
	// back intact and stats balance.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		for _, name := range Managers() {
			p, _ := New(name)
			type obj struct {
				h    Handle
				data []byte
			}
			var live []obj
			for op := 0; op < 300; op++ {
				if len(live) > 0 && rng.Float64() < 0.4 {
					i := rng.Intn(len(live))
					if err := p.Free(live[i].h); err != nil {
						return false
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					size := 1 + rng.Intn(PageSize)
					data := make([]byte, size)
					for j := range data {
						data[j] = byte(rng.Uint32())
					}
					h, err := p.Store(data)
					if err != nil {
						return false
					}
					live = append(live, obj{h, data})
				}
			}
			var total int64
			for _, o := range live {
				got, err := p.Load(o.h, nil)
				if err != nil || !bytes.Equal(got, o.data) {
					return false
				}
				total += int64(len(o.data))
			}
			s := p.Stats()
			if s.Objects != len(live) || s.StoredBytes != total {
				return false
			}
			if len(live) > 0 && s.PoolPages == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPageReuseAfterFree(t *testing.T) {
	// Pages must be recycled: steady-state churn should not grow PoolPages.
	for _, p := range pools(t) {
		var hs []Handle
		for i := 0; i < 100; i++ {
			h, _ := p.Store(make([]byte, 2000))
			hs = append(hs, h)
		}
		peak := p.Stats().PoolPages
		for _, h := range hs {
			_ = p.Free(h)
		}
		hs = hs[:0]
		for i := 0; i < 100; i++ {
			h, _ := p.Store(make([]byte, 2000))
			hs = append(hs, h)
		}
		if got := p.Stats().PoolPages; got > peak {
			t.Errorf("%s: pool grew across churn: %d -> %d pages", p.Name(), peak, got)
		}
	}
}

func TestLoadAppendsToDst(t *testing.T) {
	for _, p := range pools(t) {
		h, _ := p.Store([]byte("world"))
		got, err := p.Load(h, []byte("hello "))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "hello world" {
			t.Errorf("%s: Load append = %q", p.Name(), got)
		}
	}
}

func TestNewUnknownManager(t *testing.T) {
	if _, err := New("bogus"); err == nil {
		t.Fatal("New(bogus) should fail")
	}
}

// TestMaxObjects: a zbud page holds at most two objects and a z3fold page
// three, however small they are; zsmalloc packs small objects densely.
func TestMaxObjects(t *testing.T) {
	const n = 12
	for _, tc := range []struct {
		name     string
		maxPages int
		minPages int
	}{{"zbud", n / 2, n / 2}, {"z3fold", n / 3, n / 3}, {"zsmalloc", n/3 - 1, 1}} {
		p, err := New(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := p.Store(make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if got := p.Stats().PoolPages; got < tc.minPages || got > tc.maxPages {
			t.Fatalf("%s: %d small objects took %d pool pages, want [%d,%d]", tc.name, n, got, tc.minPages, tc.maxPages)
		}
	}
}

func TestZbudFullPageObjects(t *testing.T) {
	p := NewZbud()
	h, err := p.Store(make([]byte, PageSize))
	if err != nil {
		t.Fatalf("full-page object: %v", err)
	}
	got, err := p.Load(h, nil)
	if err != nil || len(got) != PageSize {
		t.Fatalf("load full-page: %v len=%d", err, len(got))
	}
	if p.Stats().PoolPages != 1 {
		t.Fatalf("PoolPages = %d", p.Stats().PoolPages)
	}
}
