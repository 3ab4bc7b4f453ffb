// Package tierscape is a pure-Go reproduction of "TierScape: Harnessing
// Multiple Compressed Tiers to Tame Server Memory TCO" (EuroSys '26).
//
// TierScape manages application memory across byte-addressable tiers
// (DRAM, Optane-style NVMM, CXL) and multiple software-defined compressed
// tiers, each a combination of a compression algorithm (lz4, lzo, lzo-rle,
// deflate, zstd-class, lz4hc — all implemented from scratch in this
// module; Linux's 842 is omitted, dominated everywhere by lz4, lzo and
// lzo-rle), a compressed-object pool manager (zsmalloc, zbud, z3fold) and a
// backing medium. A PEBS-style profiler builds per-region hotness each
// profile window; a placement model — the threshold-based Waterfall or the
// ILP-based analytical model with its TCO/performance knob α — then
// scatters regions across tiers, trading memory TCO against performance.
//
// This package is the facade over the implementation packages in
// internal/: it builds tiered systems, wires workloads to the TS-Daemon
// simulation loop, and returns results with throughput, latency
// percentiles and TCO accounting. See the examples/ directory for
// runnable walkthroughs and internal/experiments for the harnesses that
// regenerate every figure and table of the paper.
//
// A minimal run:
//
//	wl := tierscape.MemcachedYCSB(16*tierscape.RegionPages, 42)
//	res, err := tierscape.Run(tierscape.RunConfig{
//		Workload: wl,
//		Tiers:    tierscape.StandardMix(),
//		Model:    tierscape.AMTCO(),
//		Windows:  8,
//		OpsPerWindow: 20000,
//	})
//	fmt.Printf("savings %.1f%%\n", res.SavingsPct())
package tierscape

import (
	"errors"
	"io"
	"net"

	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/sim"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// Page and region geometry (4 KB pages, 2 MB regions).
const (
	PageSize    = mem.PageSize
	RegionPages = mem.RegionPages
	RegionSize  = mem.RegionSize
)

// Core types, re-exported from the implementation packages.
type (
	// TierConfig selects a compressed tier's codec, pool manager and
	// backing medium.
	TierConfig = ztier.Config
	// MediaKind identifies a backing medium (DRAM, NVMM, CXL).
	MediaKind = media.Kind
	// Model is a placement model (Waterfall, Analytical, baselines).
	Model = model.Model
	// Workload drives the simulation with operations.
	Workload = workload.Workload
	// Result summarizes a run: throughput, latency percentiles, per-window
	// placement and TCO accounting.
	Result = sim.Result
	// Manager is the tiered memory manager (exposed for advanced use).
	Manager = mem.Manager
	// TierID identifies a tier within a system; DRAM is always 0.
	TierID = mem.TierID
)

// Observability types, re-exported from internal/obs. A Recorder attached
// to RunConfig receives one WindowSnapshot per profile window, the
// window's applied moves in job order, and a wall-clock WindowRuntime
// trace; nil disables recording at zero cost. Snapshots and move events
// are deterministic (byte-identical at every GOMAXPROCS); runtime
// telemetry is wall-clock and flows only to live endpoints.
type (
	// Recorder receives observability events from a run.
	Recorder = obs.Recorder
	// WindowSnapshot is one window's deterministic record (also the
	// element type of Result.Windows).
	WindowSnapshot = obs.WindowSnapshot
	// MoveEvent is one applied region migration.
	MoveEvent = obs.MoveEvent
	// WindowRuntime is one window's wall-clock span trace and commit-stall
	// counters.
	WindowRuntime = obs.WindowRuntime
	// TierFlow is one src→dst cell of a window's migration matrix.
	TierFlow = obs.TierFlow
	// LiveMetrics aggregates events behind the /metrics and /healthz
	// introspection endpoints; safe for concurrent use across runs.
	LiveMetrics = obs.Live
	// EventStream encodes the deterministic event channel as JSON Lines.
	EventStream = obs.Stream
	// MetricsRecorder retains every event in memory (determinism tests,
	// trace printing).
	MetricsRecorder = obs.Mem
)

// NewLiveMetrics returns an empty live aggregator for ServeMetrics.
func NewLiveMetrics() *LiveMetrics { return obs.NewLive() }

// NewEventStream returns a Recorder encoding the deterministic event
// channel (windows, moves) to w as JSON Lines.
func NewEventStream(w io.Writer) *EventStream { return obs.NewStream(w) }

// TeeRecorders fans events out to every non-nil recorder; with none it
// returns nil, the disabled state.
func TeeRecorders(recs ...Recorder) Recorder { return obs.Tee(recs...) }

// ServeMetrics serves /metrics (Prometheus text), /healthz and
// /debug/pprof on addr (e.g. ":9090", ":0" for a free port) for the
// life of the process and returns the bound address.
func ServeMetrics(addr string, l *LiveMetrics) (net.Addr, error) { return obs.Serve(addr, l) }

// Media kinds.
const (
	DRAM = media.DRAM
	NVMM = media.NVMM
	CXL  = media.CXL
)

// StandardMix returns the paper's §8.2 tier lineup beyond DRAM+NVMM:
// CT-1 (GSwap: lzo/zsmalloc/DRAM) and CT-2 (TMO: zstd/zsmalloc/Optane).
func StandardMix() []TierConfig {
	return []TierConfig{ztier.CT1(), ztier.CT2()}
}

// Spectrum returns the paper's §8.3 five-tier compressed spectrum:
// C1, C2, C4, C7 and C12 from the §5 characterization.
func Spectrum() []TierConfig { return ztier.SpectrumSet() }

// CharacterizationTier returns tier Ck (k in 1..12) from Figure 2.
func CharacterizationTier(k int) TierConfig { return ztier.Characterization(k) }

// Standard-mix tier ids when Run is used with StandardMix() and
// ByteTiers []MediaKind{NVMM}: DRAM=0, NVMM=1, CT-1=2, CT-2=3 — the
// HeMem*, GSwap* and TMO* targets internal/model derives for that lineup.
const (
	StdNVMM = TierID(1)
	StdCT1  = TierID(2)
	StdCT2  = TierID(3)
)

// Placement models. An analytical model keeps its solver state across
// windows: use each returned model for one simulation at a time.

// AMTCO returns the analytical model tuned for TCO savings (the paper's
// AM-TCO; internal/model states its α and why).
func AMTCO() Model { return model.AMTCO() }

// AMPerf returns the analytical model tuned for performance (the paper's
// AM-perf).
func AMPerf() Model { return model.AMPerf() }

// AM returns the analytical model at an arbitrary knob α ∈ [0,1].
func AM(alpha float64) Model { return &model.Analytical{Alpha: alpha} }

// AMWarm returns AM(alpha), ignoring eps and fullEvery: every analytical
// model solves each window afresh, and there is no incremental solve to
// tune.
//
// Deprecated: use AM. AMWarm stays only for the benchmark's workload
// table; the benchmark change of ROADMAP.md item 3 deletes it.
func AMWarm(alpha, eps float64, fullEvery int) Model { return AM(alpha) }

// WaterfallModel returns the §6.1 waterfall model at the given hotness
// percentile threshold (25 = conservative, 75 = aggressive).
func WaterfallModel(pct float64) Model { return &model.Waterfall{Pct: pct} }

// HeMemBaseline returns the HeMem* two-tier baseline pushing cold regions
// to slow (StdNVMM on the standard mix).
func HeMemBaseline(slow TierID, pct float64) Model { return twoTier(model.HeMemStar, slow, pct) }

// GSwapBaseline returns the GSwap* baseline (slow StdCT1 on the standard mix).
func GSwapBaseline(slow TierID, pct float64) Model { return twoTier(model.GSwapStar, slow, pct) }

// TMOBaseline returns the TMO* baseline (slow StdCT2 on the standard mix).
func TMOBaseline(slow TierID, pct float64) Model { return twoTier(model.TMOStar, slow, pct) }

func twoTier(b model.Baseline, slow TierID, pct float64) Model {
	return &model.TwoTier{ModelName: b.String(), SlowTier: slow, Pct: pct}
}

// Workloads (Table 2), scaled by footprint in pages.

// MemcachedYCSB returns Memcached driven by YCSB's zipfian generator with
// the paper's drifting hot set.
func MemcachedYCSB(pages int64, seed uint64) Workload {
	return workload.Memcached(workload.DriverYCSB, 1024, pages, seed)
}

// MemcachedMemtier returns Memcached driven by memtier's Gaussian
// generator with the given value size (the paper uses 1 KB and 4 KB).
func MemcachedMemtier(valueSize, pages int64, seed uint64) Workload {
	return workload.Memcached(workload.DriverMemtier, valueSize, pages, seed)
}

// RedisYCSB returns the Redis workload.
func RedisYCSB(pages int64, seed uint64) Workload { return workload.Redis(pages, seed) }

// Graph is an immutable rMat graph in CSR form. Building one is by far
// the most expensive part of constructing a graph workload, and the
// workloads only read it: a caller running several graph workloads (or
// one under several models) builds the graph once and hands it to each
// BFSOn / PageRankOn / GraphSAGEOn, from any number of goroutines.
type Graph = workload.Graph

// graphDegree is the average out-degree of every graph the facade builds.
const graphDegree = 8

// RMatGraph builds the rMat graph BFSWorkload and PageRankWorkload run
// over for the same arguments.
func RMatGraph(vertices int64, seed uint64) *Graph {
	return workload.NewRMat(vertices, graphDegree, seed)
}

// GraphSAGEGraph builds the rMat graph GraphSAGEWorkload samples over for
// the same arguments (features take ~90% of the page budget).
func GraphSAGEGraph(pages int64, seed uint64) *Graph {
	return workload.NewRMat(workload.GraphSAGEVertices(pages), workload.GraphSAGEDegree, seed)
}

// BFSWorkload returns Ligra-style BFS over an rMat graph of its own.
func BFSWorkload(vertices int64, seed uint64) Workload { return BFSOn(RMatGraph(vertices, seed), seed) }

// BFSOn returns Ligra-style BFS over g.
func BFSOn(g *Graph, seed uint64) Workload { return workload.NewBFSOn(g, seed) }

// PageRankWorkload returns PageRank over an rMat graph of its own.
func PageRankWorkload(vertices int64, seed uint64) Workload {
	return PageRankOn(RMatGraph(vertices, seed))
}

// PageRankOn returns PageRank over g.
func PageRankOn(g *Graph) Workload { return workload.NewPageRankOn(g) }

// XSBenchWorkload returns the XSBench cross-section lookup kernel.
func XSBenchWorkload(pages int64, seed uint64) Workload { return workload.NewXSBench(pages, seed) }

// GraphSAGEWorkload returns the GraphSAGE minibatch sampling workload
// over an rMat graph of its own.
func GraphSAGEWorkload(pages int64, seed uint64) Workload {
	return GraphSAGEOn(GraphSAGEGraph(pages, seed), seed)
}

// GraphSAGEOn returns the GraphSAGE minibatch sampling workload over g;
// its feature and embedding matrices are sized to g.
func GraphSAGEOn(g *Graph, seed uint64) Workload { return workload.NewGraphSAGEOn(g, seed) }

// RunConfig configures one TS-Daemon simulation.
type RunConfig struct {
	// Workload drives accesses (required).
	Workload Workload
	// Tiers lists the compressed tiers (e.g. StandardMix(), Spectrum()).
	Tiers []TierConfig
	// ByteTiers lists byte-addressable tiers beyond DRAM (e.g. NVMM).
	// Run with StandardMix() usually pairs it with []MediaKind{NVMM}.
	ByteTiers []MediaKind
	// Model places regions each window; nil = all-DRAM baseline.
	Model Model
	// Windows and OpsPerWindow shape the control loop (required).
	Windows, OpsPerWindow int
	// SampleRate is the profiler period (0 = 1-in-5000; scaled runs want
	// denser sampling, e.g. 50).
	SampleRate int
	// Seed fixes content generation (default 42).
	Seed uint64
	// CompactBudget bounds each window's zs_compact pass to roughly this
	// many reclaimed pool pages across the compressed tiers; the
	// remainder carries over to later windows via resume cursors.
	// 0 = unbounded (compact every tier to completion each window).
	// This changes modeled results: a bounded budget defers reclamation.
	CompactBudget int
	// PrefetchFaultThreshold enables the §3.2 prefetcher: a region hit by
	// this many compressed-tier faults in one window is promoted in bulk
	// by the daemon. 0 disables it.
	PrefetchFaultThreshold int
	// Recorder receives the run's observability events (nil = disabled;
	// see the Recorder type alias above). Recording never changes results.
	Recorder Recorder
}

// SimConfig builds the tiered system for cfg and lowers it to the
// internal simulation config — the form Run executes and the resident
// daemon (internal/daemon) attaches. Exposed for in-module drivers like
// cmd/tierscape's -daemon mode; external callers use Run.
func SimConfig(cfg RunConfig) (sim.Config, error) {
	if cfg.Workload == nil {
		return sim.Config{}, errors.New("tierscape: Workload is required")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	m, err := mem.NewManager(mem.Config{
		NumPages:        cfg.Workload.NumPages(),
		Content:         workload.ContentSource(cfg.Workload, seed),
		ByteTiers:       cfg.ByteTiers,
		CompressedTiers: cfg.Tiers,
	})
	if err != nil {
		return sim.Config{}, err
	}
	scfg := sim.Config{
		Manager:                m,
		Workload:               cfg.Workload,
		Model:                  cfg.Model,
		Windows:                cfg.Windows,
		OpsPerWindow:           cfg.OpsPerWindow,
		SampleRate:             cfg.SampleRate,
		CompactBudget:          cfg.CompactBudget,
		PrefetchFaultThreshold: cfg.PrefetchFaultThreshold,
		Recorder:               cfg.Recorder,
	}
	return scfg, nil
}

// Run builds a tiered system sized for the workload and executes the
// TS-Daemon loop, returning the run's results.
func Run(cfg RunConfig) (*Result, error) {
	scfg, err := SimConfig(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(scfg)
}

// MasimWorkload returns the artifact's masim microbenchmark: three
// equal-size regions whose hot/warm/cold roles rotate each phase.
func MasimWorkload(pagesPerRegion, opsPerPhase int64, seed uint64) Workload {
	return workload.DefaultMasim(pagesPerRegion, opsPerPhase, seed)
}

// Colocate interleaves several workloads on one shared tiered system —
// the paper's future-work direction (v). Run detects colocated workloads
// and stitches each tenant's content profile into its address range.
func Colocate(tenants ...Workload) Workload { return workload.Colocate(tenants...) }

// YCSBWorkload returns the lettered YCSB core workload ('A'..'F') over a
// KV store sized to roughly pages; workload C is the paper's
// configuration, D's "latest" distribution drifts with inserts.
func YCSBWorkload(letter byte, pages int64, seed uint64) (Workload, error) {
	keys := pages * PageSize * 7 / 8 / 1024
	return workload.NewYCSB(letter, keys, 1024, seed)
}

// StandardRun runs wl on the full §8.2 standard mix (DRAM + NVMM + CT-1 +
// CT-2) under mdl.
func StandardRun(wl Workload, mdl Model, windows, opsPerWindow int) (*Result, error) {
	return Run(RunConfig{
		Workload:     wl,
		Tiers:        StandardMix(),
		ByteTiers:    []MediaKind{NVMM},
		Model:        mdl,
		Windows:      windows,
		OpsPerWindow: opsPerWindow,
		SampleRate:   50,
	})
}
