package workload

import (
	"reflect"
	"testing"

	"tierscape/internal/mem"
)

// drive pulls n ops from w and returns per-page access counts.
func drive(t *testing.T, w Workload, n int) map[mem.PageID]int64 {
	t.Helper()
	counts := make(map[mem.PageID]int64)
	var buf []Access
	for i := 0; i < n; i++ {
		buf = w.NextOp(buf[:0])
		if len(buf) == 0 {
			t.Fatalf("%s: op %d produced no accesses", w.Name(), i)
		}
		for _, a := range buf {
			if a.Page < 0 || a.Page >= mem.PageID(w.NumPages()) {
				t.Fatalf("%s: access to page %d outside [0,%d)", w.Name(), a.Page, w.NumPages())
			}
			counts[a.Page]++
		}
	}
	return counts
}

func allWorkloads() []Workload {
	const scale = 4096 // 16 MB footprints for tests
	return []Workload{
		Memcached(DriverYCSB, 1024, scale, 1),
		Memcached(DriverMemtier, 1024, scale, 1),
		Memcached(DriverMemtier, 4096, scale, 1),
		Redis(scale, 1),
		NewBFS(4096, 8, 1),
		NewPageRank(4096, 8, 1),
		NewXSBench(scale, 1),
		NewGraphSAGE(scale, 1),
	}
}

func TestAllWorkloadsProduceValidAccesses(t *testing.T) {
	for _, w := range allWorkloads() {
		counts := drive(t, w, 2000)
		if len(counts) < 2 {
			t.Errorf("%s: only %d distinct pages touched", w.Name(), len(counts))
		}
		if w.BaseOpNs() <= 0 {
			t.Errorf("%s: BaseOpNs must be positive", w.Name())
		}
		if w.NumPages() <= 0 {
			t.Errorf("%s: NumPages must be positive", w.Name())
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	mk := func() Workload { return Memcached(DriverYCSB, 1024, 4096, 7) }
	a, b := mk(), mk()
	var ba, bb []Access
	for i := 0; i < 100; i++ {
		ba = a.NextOp(ba[:0])
		bb = b.NextOp(bb[:0])
		if len(ba) != len(bb) {
			t.Fatalf("op %d: lengths differ", i)
		}
		for j := range ba {
			if ba[j] != bb[j] {
				t.Fatalf("op %d access %d: %+v vs %+v", i, j, ba[j], bb[j])
			}
		}
	}
}

func TestKVSkewYCSB(t *testing.T) {
	w := Memcached(DriverYCSB, 1024, 8192, 3)
	counts := drive(t, w, 50000)
	// Zipfian: some value pages must be much hotter than the median.
	var max, total int64
	for _, c := range counts {
		if c > max {
			max = c
		}
		total += c
	}
	mean := float64(total) / float64(len(counts))
	if float64(max) < 10*mean {
		t.Fatalf("YCSB zipf skew too weak: max %d vs mean %.1f", max, mean)
	}
}

func TestKVGaussianLocality(t *testing.T) {
	w := Memcached(DriverMemtier, 1024, 8192, 3)
	counts := drive(t, w, 30000)
	// Gaussian center gets the mass: the busiest decile of touched pages
	// should hold most accesses.
	var total int64
	var vals []int64
	for _, c := range counts {
		total += c
		vals = append(vals, c)
	}
	var top int64
	for _, v := range vals {
		if v > total/int64(len(vals)*2) {
			top += v
		}
	}
	if float64(top) < 0.5*float64(total) {
		t.Fatalf("gaussian concentration too weak: top pages have %d/%d", top, total)
	}
}

func TestKVWriteRatio(t *testing.T) {
	kv, err := NewKV(KVConfig{Keys: 1000, ValueSize: 1024, Driver: DriverYCSB, WriteRatio: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	writes, reads := 0, 0
	var buf []Access
	for i := 0; i < 5000; i++ {
		buf = kv.NextOp(buf[:0])
		w := false
		for _, a := range buf {
			if a.Write {
				w = true
			}
		}
		if w {
			writes++
		} else {
			reads++
		}
	}
	frac := float64(writes) / float64(writes+reads)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("write fraction = %v, want ~0.5", frac)
	}
}

func TestKV4KValuesSpanOnePage(t *testing.T) {
	kv, err := NewKV(KVConfig{Keys: 100, ValueSize: 4096, Driver: DriverYCSB, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf []Access
	buf = kv.NextOp(buf)
	// index + exactly one value page.
	if len(buf) != 2 {
		t.Fatalf("4K value op = %d accesses, want 2", len(buf))
	}
}

func TestKVConfigValidation(t *testing.T) {
	if _, err := NewKV(KVConfig{Keys: 0, ValueSize: 1024}); err == nil {
		t.Error("zero keys should fail")
	}
	if _, err := NewKV(KVConfig{Keys: 10, ValueSize: 1024, Driver: KVDriver(9)}); err == nil {
		t.Error("bad driver should fail")
	}
}

func TestRMatProperties(t *testing.T) {
	g := NewRMat(1000, 8, 5)
	if g.N() != 1024 {
		t.Fatalf("N = %d, want rounded to 1024", g.N())
	}
	if g.M() != 1024*8 {
		t.Fatalf("M = %d", g.M())
	}
	// CSR must be consistent.
	if g.offsets[g.N()] != g.M() {
		t.Fatalf("offsets[n] = %d, want %d", g.offsets[g.N()], g.M())
	}
	for v := int64(0); v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if int64(w) < 0 || int64(w) >= g.N() {
				t.Fatalf("edge to %d out of range", w)
			}
		}
	}
	// rMat skew: max degree far above average.
	var maxDeg int64
	for v := int64(0); v < g.N(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 40 {
		t.Fatalf("max degree %d; rMat should produce hubs (avg 8)", maxDeg)
	}
}

func TestBFSVisitsAndRestarts(t *testing.T) {
	// One op pops one vertex and a search pops each vertex at most once,
	// so 30k ops on a 2k-vertex graph are many searches: every one of them
	// must yield the popped vertex's accesses.
	b := NewBFS(2048, 8, 2)
	var buf []Access
	for i := 0; i < 30000; i++ {
		if buf = b.NextOp(buf[:0]); len(buf) == 0 {
			t.Fatalf("op %d is empty; BFS did not restart its search", i)
		}
	}
}

func TestPageRankIterates(t *testing.T) {
	// One op relaxes one vertex in index order, so after the last vertex
	// the next pass repeats the first one op for op.
	const n = 1024
	p := NewPageRank(n, 8, 2)
	passes := [3][][]Access{}
	for i := range passes {
		for v := 0; v < n; v++ {
			passes[i] = append(passes[i], p.NextOp(nil))
		}
	}
	if !reflect.DeepEqual(passes[0], passes[1]) || !reflect.DeepEqual(passes[0], passes[2]) {
		t.Fatal("PageRank passes differ; the vertex cursor did not wrap")
	}
}

func TestXSBenchTableScatter(t *testing.T) {
	x := NewXSBench(8192, 2)
	counts := drive(t, x, 20000)
	// The big table must receive wide, shallow coverage: many distinct
	// table pages touched.
	tablePages := 0
	for p := range counts {
		if p >= x.tablePage0 {
			tablePages++
		}
	}
	if int64(tablePages) < x.tablePages/4 {
		t.Fatalf("only %d/%d table pages touched; want wide scatter", tablePages, x.tablePages)
	}
}

func TestXSBenchGridHotter(t *testing.T) {
	x := NewXSBench(8192, 2)
	counts := drive(t, x, 20000)
	var gridTotal, tableTotal int64
	for p, c := range counts {
		if p < mem.PageID(x.gridPages) {
			gridTotal += c
		} else {
			tableTotal += c
		}
	}
	gridPerPage := float64(gridTotal) / float64(x.gridPages)
	tablePerPage := float64(tableTotal) / float64(x.tablePages)
	if gridPerPage < 5*tablePerPage {
		t.Fatalf("search grid not hotter per page: grid %.2f vs table %.2f", gridPerPage, tablePerPage)
	}
}

func TestGraphSAGEFeatureGather(t *testing.T) {
	s := NewGraphSAGE(8192, 2)
	counts := drive(t, s, 5000)
	featAccesses := int64(0)
	for p, c := range counts {
		if p >= s.featPage0 && p < s.featPage0+mem.PageID(s.featPages) {
			featAccesses += c
		}
	}
	if featAccesses == 0 {
		t.Fatal("no feature-matrix accesses")
	}
}

func TestNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range allWorkloads() {
		if w.Name() == "" {
			t.Fatal("empty workload name")
		}
		seen[w.Name()] = true
	}
	if len(seen) < 7 {
		t.Fatalf("only %d distinct names", len(seen))
	}
}

// BenchmarkXSBenchNextOp draws lookups at the ledger's daemon size: 32
// regions of grid and table, 15 binary-search levels an op.
func BenchmarkXSBenchNextOp(b *testing.B) {
	x := NewXSBench(32*mem.RegionPages, 1)
	buf := make([]Access, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = x.NextOp(buf[:0])
	}
}
