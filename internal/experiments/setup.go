package experiments

import (
	"io"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// Scale is every setting a figure's runs take: their sizing, seed and
// compaction budget, and the sinks their events go to. The paper runs
// 30–119 GB working sets; the simulator scales footprints down uniformly
// (DESIGN.md §6) while keeping the regions-per-window and hot/warm/cold
// proportions that drive the models.
type Scale struct {
	// KVPages is the Memcached/Redis footprint in pages.
	KVPages int64
	// GraphVertices sizes BFS/PageRank rMat graphs.
	GraphVertices int64
	// XSPages sizes XSBench.
	XSPages int64
	// SagePages sizes GraphSAGE.
	SagePages int64
	// OpsPerWindow and Windows shape the TS-Daemon loop.
	OpsPerWindow int
	Windows      int
	// SampleRate is the profiler period (denser than the paper's 5000
	// because scaled workloads issue fewer accesses).
	SampleRate int
	// CompactBudget caps each run's per-window compaction pass at this
	// many reclaimed pool pages (sim.Config.CompactBudget); 0 is the
	// unbounded sweep. A bounded budget defers reclamation across
	// windows, so tables differ from the unbounded ones, deterministically
	// for any fixed value.
	CompactBudget int
	// Seed fixes all randomness.
	Seed uint64

	// Live, when set, receives every run's events, so the introspection
	// endpoints aggregate across the batch. It is safe for concurrent
	// use, so one aggregator serves every worker.
	Live *obs.Live
	// Events, when set, receives every run's deterministic JSONL event
	// stream: one {"e":"run"} annotation per job, then its windows and
	// moves. Each job records into a private buffer; once the set
	// completes the runner writes each job's buffer with one Write, in
	// job order, from the goroutine that called the harness — so the bytes
	// are the same at every GOMAXPROCS. A writer shared by figures that
	// run at once must make each Write whole by itself.
	Events io.Writer

	// inputs is the running figure's table of shared immutable inputs,
	// set by runJobs for the jobs it starts; nil everywhere else.
	inputs *inputs
}

// DefaultScale is the bench/CLI configuration (~32-48 MB footprints; graph
// workloads get enough vertices that their CSR spans dozens of regions,
// since region-granularity models need a meaningful region population).
func DefaultScale() Scale {
	return Scale{
		KVPages:       16 * mem.RegionPages,
		GraphVertices: 1 << 19, // 512k vertices ≈ 24 MB CSR ≈ 12 regions
		XSPages:       16 * mem.RegionPages,
		SagePages:     16 * mem.RegionPages,
		OpsPerWindow:  20000,
		Windows:       8,
		SampleRate:    50,
		Seed:          42,
	}
}

// SmallScale is the test configuration (~12-16 MB footprints, fast).
func SmallScale() Scale {
	return Scale{
		KVPages:       6 * mem.RegionPages,
		GraphVertices: 1 << 17, // 128k vertices ≈ 6 MB CSR ≈ 3 regions
		XSPages:       6 * mem.RegionPages,
		SagePages:     6 * mem.RegionPages,
		OpsPerWindow:  4000,
		Windows:       4,
		SampleRate:    20,
		Seed:          42,
	}
}

// WorkloadSpec names a workload constructor; fresh instances are required
// per run because workloads are stateful. What is not stateful — the rMat
// graph the graph kernels traverse — New draws from the running figure's
// input table (Scale.rmat), so a sweep builds each distinct graph once.
type WorkloadSpec struct {
	// Name identifies the stream New produces. A figure records one
	// stream per name and effective Scale and every job of that name
	// replays it, so within one figure two specs of one name must build
	// the same workload (the runner refuses two that name different
	// graphs; it cannot compare constructors).
	Name string
	New  func(s Scale) workload.Workload
	// graph, for a spec made by graphSpec, names the rMat graph New will
	// ask the table for, so the runner can start building it before the
	// first job that needs it comes up.
	graph func(s Scale) (vertices int64, degree int)
}

// graphSpec is the WorkloadSpec of a kernel over an rMat graph: dims names
// the graph at a scale, on builds the kernel's own state over it.
func graphSpec(name string, dims func(Scale) (vertices int64, degree int),
	on func(g *workload.Graph, s Scale) workload.Workload) WorkloadSpec {
	return WorkloadSpec{
		Name:  name,
		graph: dims,
		New: func(s Scale) workload.Workload {
			vertices, degree := dims(s)
			return on(s.rmat(vertices, degree), s)
		},
	}
}

// Workloads returns the paper's Table 2 set.
func Workloads() []WorkloadSpec {
	csr := func(s Scale) (int64, int) { return s.GraphVertices, 8 }
	return []WorkloadSpec{
		{Name: "Memcached/YCSB", New: func(s Scale) workload.Workload {
			return workload.Memcached(workload.DriverYCSB, 1024, s.KVPages, s.Seed)
		}},
		{Name: "Memcached/memtier-1K", New: func(s Scale) workload.Workload {
			return workload.Memcached(workload.DriverMemtier, 1024, s.KVPages, s.Seed)
		}},
		{Name: "Memcached/memtier-4K", New: func(s Scale) workload.Workload {
			return workload.Memcached(workload.DriverMemtier, 4096, s.KVPages, s.Seed)
		}},
		{Name: "Redis/YCSB", New: func(s Scale) workload.Workload {
			return workload.Redis(s.KVPages, s.Seed)
		}},
		graphSpec("BFS", csr, func(g *workload.Graph, s Scale) workload.Workload {
			return workload.NewBFSOn(g, s.Seed)
		}),
		graphSpec("PageRank", csr, func(g *workload.Graph, s Scale) workload.Workload {
			return workload.NewPageRankOn(g)
		}),
		{Name: "XSBench", New: func(s Scale) workload.Workload {
			return workload.NewXSBench(s.XSPages, s.Seed)
		}},
		graphSpec("GraphSAGE", func(s Scale) (int64, int) {
			return workload.GraphSAGEVertices(s.SagePages), workload.GraphSAGEDegree
		}, func(g *workload.Graph, s Scale) workload.Workload {
			return workload.NewGraphSAGEOn(g, s.Seed)
		}),
	}
}

// workloadByName returns the named WorkloadSpec; it panics on unknown
// names, which would be a programming error in an experiment harness.
func workloadByName(name string) WorkloadSpec {
	for _, w := range Workloads() {
		if w.Name == name {
			return w
		}
	}
	panic("experiments: unknown workload " + name)
}

// lineup is a tiered system's tiers below DRAM: its byte-addressable
// tiers, then its compressed tiers, numbered from 1 in that order. A
// lineup with no tiers is the standard mix.
type lineup struct {
	byteTiers  []media.Kind
	compressed []ztier.Config
	// content, when set, fills every page from this profile in place of
	// the workload's own content.
	content *corpus.Profile
}

// standardMix is the §8.2 lineup: NVMM, CT-1, CT-2.
func standardMix() lineup {
	return lineup{byteTiers: []media.Kind{media.NVMM}, compressed: []ztier.Config{ztier.CT1(), ztier.CT2()}}
}

// spectrum is the §8.3 lineup: C1, C2, C4, C7 and C12, tier ids 1..5.
func spectrum() lineup { return lineup{compressed: ztier.SpectrumSet()} }

// baseline returns two-tier baseline b over l at percentile pct. A harness
// asks only for baselines its lineup has, so a missing target panics.
func (l lineup) baseline(b model.Baseline, pct float64) *model.TwoTier {
	mdl, err := b.New(l.byteTiers, l.compressed, pct)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return mdl
}

// manager builds the tiered system l describes, sized and filled for wl.
func (l lineup) manager(wl workload.Workload, seed uint64) (*mem.Manager, error) {
	if len(l.byteTiers)+len(l.compressed) == 0 {
		l = standardMix()
	}
	content := workload.ContentSource(wl, seed)
	if l.content != nil {
		content = corpus.NewGenerator(*l.content, seed)
	}
	return mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         content,
		ByteTiers:       l.byteTiers,
		CompressedTiers: l.compressed,
	})
}

// standardModels returns the §8.2 model lineup at the paper's thresholds.
func standardModels() []model.Model {
	mix := standardMix()
	return []model.Model{
		mix.baseline(model.HeMemStar, 25),
		mix.baseline(model.GSwapStar, 25),
		mix.baseline(model.TMOStar, 25),
		&model.Waterfall{Pct: 25},
		model.AMTCO(),
		model.AMPerf(),
	}
}
