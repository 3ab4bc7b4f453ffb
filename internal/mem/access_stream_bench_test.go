package mem_test

import (
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// BenchmarkRecorderOffAccessKVStream measures the byte-tier hit path at the
// footprint of the ledger's kv_steady (128 regions): a recorded Redis/YCSB
// stream replayed over a manager with every other region on NVMM. Where
// BenchmarkRecorderOffAccess's 8 regions fit in cache, this page table does
// not, so it sees what an access costs in the page table's memory traffic.
// An op is one access. Its name keeps it inside CI's bench-smoke regex.
func BenchmarkRecorderOffAccessKVStream(b *testing.B) {
	wl := workload.Redis(128*mem.RegionPages, 42)
	m, err := mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         corpus.NewGenerator(wl.Content(), 42),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		b.Fatal(err)
	}
	for r := mem.RegionID(1); r < mem.RegionID(m.NumRegions()); r += 2 {
		if _, err := m.MigrateRegion(r, 1); err != nil {
			b.Fatal(err)
		}
	}
	var stream []workload.Access
	for len(stream) < 1<<18 {
		stream = wl.NextOp(stream)
	}
	sc := new(mem.MigrationScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		a := stream[i%len(stream)]
		if _, err := m.AccessScratch(a.Page, a.Write, sc); err != nil {
			b.Fatal(err)
		}
	}
}
