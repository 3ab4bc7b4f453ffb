// Access-path guards. sim's access loop calls Manager.AccessScratch once
// per modeled memory access — 98.8 % of a kv_steady step on the ledger
// (bench/README.md) — so a hit on a byte-addressable tier must stay
// lock-free and allocation-free, with or without an obs Recorder
// configured. The ledger's traced mem.access_hit_ns is where its wall time
// is tracked (`go run ./bench -workload kv_steady -trace 1`); the test and
// benchmark here check counts only.
package mem

import (
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// accessBenchManager builds the standard-mix shape (DRAM + NVMM + two
// compressed tiers) with every page resident in DRAM, so the measured
// path is the byte-addressable hit — the overwhelmingly common case in
// sim.Run's hot loop.
func accessBenchManager(b testing.TB) *Manager {
	b.Helper()
	m, err := NewManager(Config{
		NumPages: 8 * RegionPages,
		Content:  corpus.NewGenerator(corpus.Dickens, 7),
		ByteTiers: []media.Kind{
			media.NVMM,
		},
		CompressedTiers: []ztier.Config{
			{Codec: "lzo", Pool: "zsmalloc", Media: media.DRAM},
			{Codec: "zstd", Pool: "zsmalloc", Media: media.NVMM},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkRecorderOffAccess measures the DRAM-hit access path. Its name
// keeps it inside CI's bench-smoke regex (`Recorder|ApplyMoves|MCKP`): the
// smoke run fails if this path ever starts allocating.
func BenchmarkRecorderOffAccess(b *testing.B) {
	m := accessBenchManager(b)
	n := PageID(m.NumPages())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Access(PageID(i)%n, i%8 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAccessHitAllocsPerRun: a DRAM-hit AccessScratch, read or write,
// allocates nothing.
func TestAccessHitAllocsPerRun(t *testing.T) {
	m := accessBenchManager(t)
	n := PageID(m.NumPages())
	sc := &MigrationScratch{}
	i := 0
	if allocs := testing.AllocsPerRun(4096, func() {
		if ar, err := m.AccessScratch(PageID(i)%n, i%8 == 0, sc); err != nil || ar.Fault {
			t.Fatalf("access %d: %+v, %v", i, ar, err)
		}
		i++
	}); allocs != 0 {
		t.Fatalf("%v allocations per DRAM-hit access, want 0", allocs)
	}
}
