package workload

import (
	"reflect"
	"strings"
	"testing"

	"tierscape/internal/mem"
)

func TestColocateAddressIsolation(t *testing.T) {
	a := DefaultMasim(64, 100, 1)              // 192 pages -> 1 region
	b := Memcached(DriverYCSB, 1024, 2*512, 2) // ~2 regions
	c := Colocate(a, b)

	if c.bases[0] != 0 {
		t.Fatalf("tenant 0 base = %d", c.bases[0])
	}
	if c.bases[1]%mem.RegionPages != 0 {
		t.Fatalf("tenant 1 base %d not region aligned", c.bases[1])
	}
	if c.NumPages() < a.NumPages()+b.NumPages() {
		t.Fatalf("total %d < sum of tenants", c.NumPages())
	}

	var buf []Access
	for i := 0; i < 2000; i++ {
		buf = c.NextOp(buf[:0])
		tenant := i % 2 // round-robin: TestColocateRoundRobin
		lo := c.bases[tenant]
		var hi mem.PageID
		if tenant == 0 {
			hi = c.bases[1]
		} else {
			hi = mem.PageID(c.NumPages())
		}
		for _, acc := range buf {
			if acc.Page < lo || acc.Page >= hi {
				t.Fatalf("tenant %d accessed page %d outside [%d,%d)", tenant, acc.Page, lo, hi)
			}
		}
	}
}

func TestColocateRoundRobin(t *testing.T) {
	// Op i is tenant i%2's next op, offset to the tenant's base: replay
	// each tenant alone beside the colocated stream.
	c := Colocate(DefaultMasim(32, 100, 1), DefaultMasim(32, 100, 2))
	alone := []Workload{DefaultMasim(32, 100, 1), DefaultMasim(32, 100, 2)}
	var buf, want []Access
	for i := 0; i < 10; i++ {
		buf = c.NextOp(buf[:0])
		want = alone[i%2].NextOp(want[:0])
		for j := range want {
			want[j].Page += c.bases[i%2]
		}
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("op %d = %v, want tenant %d's %v", i, buf, i%2, want)
		}
	}
}

func TestColocateName(t *testing.T) {
	c := Colocate(DefaultMasim(32, 100, 1), NewXSBench(512, 2))
	if !strings.Contains(c.Name(), "masim") || !strings.Contains(c.Name(), "XSBench") {
		t.Fatalf("name = %q", c.Name())
	}
}

func TestColocateContentSource(t *testing.T) {
	a := DefaultMasim(mem.RegionPages, 100, 1) // Mixed content
	b := NewBFS(8192, 8, 2)                    // Binary content
	c := Colocate(a, b)
	src := c.ContentSource(5)
	buf1 := make([]byte, 4096)
	buf2 := make([]byte, 4096)
	src.Fill(0, buf1)
	src.Fill(uint64(c.bases[1]), buf2)
	// Both must produce deterministic, non-identical content.
	same := true
	for i := range buf1 {
		if buf1[i] != buf2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("tenant contents identical; composite source not segmenting")
	}
}
