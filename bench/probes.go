package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"tierscape/internal/compress"
	"tierscape/internal/corpus"
	"tierscape/internal/ilp"
	"tierscape/internal/mem"
	"tierscape/internal/stats"
	"tierscape/internal/telemetry"
	"tierscape/internal/workload"
	"tierscape/internal/zpool"
	"tierscape/internal/ztier"
)

// Layer probes: direct calls into one layer's public functions, on inputs
// drawn from the workload that was just traced — its content profiles,
// its tier lineup, and the accesses its wrapper logged. They separate
// what the outside-only spans lump together (telemetry.Record vs
// mem.Access vs OpLat.Add inside the access loop; codec vs pool inside a
// tier store). Each probe repeats in passes until its wall budget is
// spent (at least probeMinPasses) and reports the median pass.

// probeInputs describes a workload to the probes.
type probeInputs struct {
	tiers    tierSet
	profiles []corpus.Profile
	numPages int64
	accesses []workload.Access
}

type prober struct {
	in     probeInputs
	seed   uint64
	sz     sizing
	pages  [][]byte // probePages pages cycling through the content profiles
	out    map[string]float64
	checks *checks
}

// runProbes measures every layer reachable on in and returns the
// per-layer metrics; round-trip failures are counted on checks.
func runProbes(in probeInputs, seed uint64, sz sizing, c *checks) map[string]float64 {
	p := &prober{in: in, seed: seed, sz: sz, out: map[string]float64{}, checks: c}
	gens := make([]*corpus.Generator, len(in.profiles))
	for i, prof := range in.profiles {
		gens[i] = corpus.NewGenerator(prof, seed)
	}
	p.pages = make([][]byte, sz.probePages)
	for i := range p.pages {
		p.pages[i] = gens[i%len(gens)].Page(uint64(i), mem.PageSize)
	}
	buf := make([]byte, mem.PageSize)
	p.out["corpus.fill_ns_per_page"] = p.passes(nil, func() {
		for i := range p.pages {
			gens[i%len(gens)].Fill(uint64(i), buf)
		}
	}) / float64(len(p.pages))

	p.codecs()
	p.pools()
	p.ztiers()
	p.memory()
	p.telemetry()
	p.stats()
	p.solver()
	return p.out
}

// passes runs setup (untimed) and f (timed) until the probe's budget is
// spent, at least probeMinPasses times, and returns f's median
// nanoseconds.
func (p *prober) passes(setup, f func()) float64 {
	var durs []float64
	deadline := time.Now().Add(p.sz.probeBudget)
	for p.again(len(durs), deadline) {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		f()
		durs = append(durs, float64(time.Since(t0)))
	}
	return median(durs)
}

// again reports whether a probe that has taken n passes takes another.
func (p *prober) again(n int, deadline time.Time) bool {
	return n < p.sz.probeMinPasses || time.Now().Before(deadline)
}

func (p *prober) fail(format string, args ...any) {
	p.checks.check(false, format, args...)
}

// codecs probes every codec the tier lineup uses.
func (p *prober) codecs() {
	seen := map[string]bool{}
	var failures float64
	for _, t := range p.in.tiers.compressed {
		name := t.cfg.Codec
		if seen[name] {
			continue
		}
		seen[name] = true
		c, err := compress.Lookup(name)
		if err != nil {
			p.fail("probe: codec %s: %v", name, err)
			continue
		}
		comp := make([][]byte, len(p.pages))
		pass := func() {
			for i, pg := range p.pages {
				comp[i] = c.Compress(comp[i][:0], pg)
			}
		}
		pass() // size the destination buffers before counting allocations
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		pass()
		runtime.ReadMemStats(&ms1)
		n := float64(len(p.pages))
		pre := "compress." + name
		p.out[pre+".alloc_bytes_per_page"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
		p.out[pre+".compress_ns_per_page"] = p.passes(nil, pass) / n
		var in, out int
		for i, pg := range p.pages {
			in += len(pg)
			out += len(comp[i])
		}
		p.out[pre+".ratio"] = float64(out) / float64(in)
		var dec []byte
		p.out[pre+".decompress_ns_per_page"] = p.passes(nil, func() {
			for i := range comp {
				dec, _ = c.Decompress(dec[:0], comp[i])
			}
		}) / n
		before := p.checks.failed
		for i, pg := range p.pages {
			got, err := c.Decompress(nil, comp[i])
			p.checks.check(err == nil && bytes.Equal(got, pg), "probe: %s round trip of page %d: %v", name, i, err)
		}
		failures += float64(p.checks.failed - before)
	}
	p.out["compress.roundtrip_failures"] = failures
}

// pools probes every pool manager the lineup uses, storing the payloads
// the tier's own codec produces from the probe pages.
func (p *prober) pools() {
	seen := map[string]bool{}
	for _, t := range p.in.tiers.compressed {
		name := t.cfg.Pool
		if seen[name] {
			continue
		}
		seen[name] = true
		c, err := compress.Lookup(t.cfg.Codec)
		if err != nil {
			continue // reported by codecs()
		}
		var payloads [][]byte
		for _, pg := range p.pages {
			if b := c.Compress(nil, pg); len(b) < zpool.PageSize {
				payloads = append(payloads, b)
			}
		}
		if len(payloads) == 0 {
			continue
		}
		var store, load, free, compact, density []float64
		handles := make([]zpool.Handle, len(payloads))
		var dst []byte
		deadline := time.Now().Add(p.sz.probeBudget)
		for p.again(len(store), deadline) {
			pool, err := zpool.New(name)
			if err != nil {
				p.fail("probe: pool %s: %v", name, err)
				return
			}
			t0 := time.Now()
			for i, b := range payloads {
				handles[i], err = pool.Store(b)
				if err != nil {
					p.fail("probe: %s store: %v", name, err)
					return
				}
			}
			t1 := time.Now()
			for _, h := range handles {
				dst, _ = pool.Load(h, dst[:0])
			}
			t2 := time.Now()
			if len(store) == 0 {
				for i, h := range handles {
					got, err := pool.Load(h, nil)
					p.checks.check(err == nil && bytes.Equal(got, payloads[i]), "probe: %s load of object %d differs from what was stored: %v", name, i, err)
				}
			}
			density = append(density, pool.Stats().Density())
			freed := 0
			t3 := time.Now()
			for i, h := range handles {
				if i%4 != 0 {
					if err := pool.Free(h); err != nil {
						p.fail("probe: %s free: %v", name, err)
						return
					}
					freed++
				}
			}
			t4 := time.Now()
			reclaimed := pool.Compact()
			t5 := time.Now()
			n := float64(len(payloads))
			store = append(store, float64(t1.Sub(t0))/n)
			load = append(load, float64(t2.Sub(t1))/n)
			if freed > 0 {
				free = append(free, float64(t4.Sub(t3))/float64(freed))
			}
			if reclaimed > 0 {
				compact = append(compact, float64(t5.Sub(t4))/float64(reclaimed))
			}
		}
		pre := "zpool." + name
		p.out[pre+".store_ns"] = median(store)
		p.out[pre+".load_ns"] = median(load)
		p.out[pre+".free_ns"] = median(free)
		p.out[pre+".compact_ns_per_reclaimed_page"] = median(compact)
		p.out[pre+".density"] = median(density)
	}
}

// ztiers probes each compressed tier's Store and Load: codec + pool +
// the tier's own bookkeeping, as a migration commit or a fault pays it.
func (p *prober) ztiers() {
	for i, t := range p.in.tiers.compressed {
		var tier *ztier.Tier
		handles := make([]ztier.Handle, 0, len(p.pages))
		stored := 0
		var storeNs, loadNs []float64
		var dst []byte
		deadline := time.Now().Add(p.sz.probeBudget)
		for p.again(len(storeNs), deadline) {
			var err error
			if tier, err = ztier.New(int(p.in.tiers.id(i)), t.cfg); err != nil {
				p.fail("probe: tier %s: %v", t.label, err)
				return
			}
			handles = handles[:0]
			t0 := time.Now()
			for _, pg := range p.pages {
				h, _, err := tier.Store(pg)
				if errors.Is(err, ztier.ErrIncompressible) {
					continue
				}
				if err != nil {
					p.fail("probe: tier %s store: %v", t.label, err)
					return
				}
				handles = append(handles, h)
			}
			t1 := time.Now()
			for _, h := range handles {
				dst, _, _ = tier.Load(h, dst[:0])
			}
			t2 := time.Now()
			stored = len(handles)
			if stored == 0 {
				break
			}
			storeNs = append(storeNs, float64(t1.Sub(t0))/float64(len(p.pages)))
			loadNs = append(loadNs, float64(t2.Sub(t1))/float64(stored))
		}
		pre := "ztier." + t.label
		p.out[pre+".store_ns_per_page"] = median(storeNs)
		p.out[pre+".load_ns_per_page"] = median(loadNs)
	}
}

// newManager builds a probe manager of n regions on the workload's tier
// lineup, region k filled from content profile k mod len(profiles).
func (p *prober) newManager(n int) *mem.Manager {
	segs := make([]corpus.Segment, n)
	for k := range segs {
		segs[k] = corpus.Segment{Pages: mem.RegionPages,
			Source: corpus.NewGenerator(p.in.profiles[k%len(p.in.profiles)], p.seed)}
	}
	m, err := mem.NewManager(mem.Config{
		NumPages:        int64(n) * mem.RegionPages,
		Content:         corpus.NewComposite(segs...),
		ByteTiers:       p.in.tiers.byteTiers,
		CompressedTiers: p.in.tiers.configs(),
	})
	if err != nil {
		panic(fmt.Sprintf("bench: probe manager: %v", err)) // static configuration
	}
	return m
}

// migrateAll moves every region of m to dest and returns the pages that
// arrived; a full tier is benign, anything else is a failed probe.
func (p *prober) migrateAll(m *mem.Manager, dest mem.TierID) int {
	moved := 0
	for r := int64(0); r < m.NumRegions(); r++ {
		mr, err := m.MigrateRegion(mem.RegionID(r), dest)
		if err != nil && !errors.Is(err, mem.ErrTierFull) {
			p.fail("probe: migrate region %d to tier %d: %v", r, dest, err)
		}
		moved += mr.Moved
	}
	return moved
}

// demoted builds a probe manager with every region already in tier.
func (p *prober) demoted(regions int, tier mem.TierID) *mem.Manager {
	m := p.newManager(regions)
	p.migrateAll(m, tier)
	return m
}

func (p *prober) memory() {
	ts := p.in.tiers
	regions := max(p.sz.probeRegions, len(p.in.profiles))

	if len(p.in.accesses) > 0 {
		// Everything starts in DRAM and nothing migrates, so every access
		// of the replay is a hit.
		m, err := mem.NewManager(mem.Config{
			NumPages: p.in.numPages, Content: corpus.NewGenerator(p.in.profiles[0], p.seed),
			ByteTiers: ts.byteTiers, CompressedTiers: ts.configs(),
		})
		if err != nil {
			p.fail("probe: manager: %v", err)
			return
		}
		p.out["mem.access_hit_ns"] = p.passes(nil, func() {
			for _, a := range p.in.accesses {
				if _, err := m.Access(a.Page, a.Write); err != nil {
					p.fail("probe: access page %d: %v", a.Page, err)
					return
				}
			}
		}) / float64(len(p.in.accesses))
	}

	for i, t := range ts.compressed {
		var m *mem.Manager
		var moved, faults int
		id := ts.id(i)
		demote := p.passes(func() { m = p.newManager(regions) }, func() { moved = p.migrateAll(m, id) })
		if moved == 0 {
			continue
		}
		p.out["mem.demote_ns_per_page."+t.label] = demote / float64(moved)
		fault := p.passes(func() { m = p.demoted(regions, id) }, func() {
			faults = 0
			for pg := int64(0); pg < m.NumPages(); pg++ {
				ar, err := m.Access(mem.PageID(pg), false)
				if err != nil {
					p.fail("probe: fault page %d: %v", pg, err)
					return
				}
				if ar.Fault {
					faults++
				}
			}
		})
		if faults > 0 {
			// The sweep also touches the pages the tier rejected; they
			// are DRAM hits, two orders of magnitude cheaper than a fault.
			p.out["mem.fault_ns."+t.label] = fault / float64(faults)
		}
	}

	// Compressed-to-compressed between two tiers sharing a codec moves
	// the compressed bytes without a decompress/recompress.
	if from, to, ok := ts.sameCodecPair(); ok {
		var m *mem.Manager
		var moved int
		ns := p.passes(func() { m = p.demoted(regions, from) }, func() { moved = p.migrateAll(m, to) })
		if moved > 0 {
			p.out["mem.ct2ct_fastpath_ns_per_page"] = ns / float64(moved)
		}
	}

	// The apply engine's two halves, towards the densest tier.
	last := ts.id(len(ts.compressed) - 1)
	var m *mem.Manager
	var prepared []*mem.PreparedRegion
	prepare := func() {
		prepared = prepared[:0]
		for r := 0; r < regions; r++ {
			pr, err := m.PrepareRegionMigration(mem.RegionID(r), last)
			if err != nil {
				p.fail("probe: prepare region %d: %v", r, err)
				return
			}
			prepared = append(prepared, pr)
		}
	}
	release := func() {
		for _, pr := range prepared {
			pr.Release()
		}
	}
	pages := float64(regions * mem.RegionPages)
	p.out["mem.prepare_ns_per_page"] = p.passes(func() { release(); m = p.newManager(regions) }, prepare) / pages
	release()
	p.out["mem.commit_ns_per_page"] = p.passes(func() { m = p.newManager(regions); prepare() }, func() {
		for _, pr := range prepared {
			if _, err := m.CommitRegionMigration(pr); err != nil && !errors.Is(err, mem.ErrTierFull) {
				p.fail("probe: commit: %v", err)
			}
		}
	}) / pages
	prepared = nil

	// Compaction after churn: demote everything, fault three pages of
	// four back, then one unbounded pass as the stepper runs it.
	p.out["mem.compact_budgeted_ns"] = p.passes(func() {
		m = p.demoted(regions, ts.id(0))
		for pg := int64(0); pg < m.NumPages(); pg++ {
			if pg%4 != 0 {
				if _, err := m.Access(mem.PageID(pg), false); err != nil {
					p.fail("probe: churn access: %v", err)
					return
				}
			}
		}
	}, func() { m.CompactBudgeted(0) })
}

func (p *prober) telemetry() {
	if len(p.in.accesses) == 0 {
		return
	}
	regions := (p.in.numPages + mem.RegionPages - 1) / mem.RegionPages
	newProfiler := func() *telemetry.Profiler {
		prof, err := telemetry.NewProfiler(telemetry.Config{NumRegions: regions, SampleRate: 50})
		if err != nil {
			panic(fmt.Sprintf("bench: probe profiler: %v", err)) // static configuration
		}
		return prof
	}
	prof := newProfiler()
	replay := func() {
		for _, a := range p.in.accesses {
			prof.Record(a.Page)
		}
	}
	replay()
	p.out["telemetry.samples"] = float64(prof.TotalSamples())
	p.out["telemetry.record_ns_per_access"] = p.passes(nil, replay) / float64(len(p.in.accesses))
	p.out["telemetry.end_window_ns"] = p.passes(func() { prof = newProfiler(); replay() }, func() { prof.EndWindow() })
}

func (p *prober) stats() {
	// Redis's key count at this footprint (7/8 of the pages hold 1 KB
	// values), so the sampler's rank arithmetic sees the same magnitudes.
	keys := p.in.numPages * mem.PageSize * 7 / 8 / 1024
	z := stats.NewZipf(stats.NewRNG(p.seed), keys, 0.99, false)
	const draws = 100000
	var sink int64
	p.out["stats.zipf_next_ns"] = p.passes(nil, func() {
		for i := 0; i < draws; i++ {
			sink += z.Next()
		}
	}) / draws
	runtime.KeepAlive(sink)

	const adds = 1 << 20
	var s *stats.Summary
	add := func() {
		for i := 0; i < adds; i++ {
			s.Add(float64(i))
		}
	}
	s = stats.NewSummary()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	add()
	runtime.ReadMemStats(&ms1)
	p.out["stats.summary_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / adds
	p.out["stats.summary_add_ns"] = p.passes(func() { s = stats.NewSummary() }, add) / adds
}

// solver probes the greedy MCKP at the workload's size: one class per
// region, one option per tier, hotness falling off like a Zipfian.
func (p *prober) solver() {
	regions := int((p.in.numPages + mem.RegionPages - 1) / mem.RegionPages)
	tiers := 1 + len(p.in.tiers.byteTiers) + len(p.in.tiers.compressed)
	rng := stats.NewRNG(p.seed)
	prob := ilp.Problem{Classes: make([][]ilp.Option, regions)}
	for r := range prob.Classes {
		hot := 1e6 / float64(1+rng.Intn(regions))
		opts := make([]ilp.Option, tiers)
		for k := range opts {
			// Slower tiers cost more per access and less per byte.
			opts[k] = ilp.Option{Cost: hot * float64(k) * 500, Weight: 1 / float64(1+k)}
		}
		prob.Classes[r] = opts
	}
	prob.Budget = (ilp.MinWeight(prob) + ilp.MaxWeight(prob)) / 2
	p.out["ilp.solve_greedy_ns"] = p.passes(nil, func() {
		if _, err := ilp.SolveGreedy(prob); err != nil {
			fmt.Fprintln(os.Stderr, "bench: probe: SolveGreedy:", err)
		}
	})
}
