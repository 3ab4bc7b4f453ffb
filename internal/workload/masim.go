package workload

import (
	"fmt"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/stats"
)

// Masim is the memory-access simulator microbenchmark the paper's artifact
// uses to test the setup ("Masim: A microbenchmark to test the setup
// process", Appendix A.2.4) — a configurable, phase-based access pattern
// generator in the style of DAMON's masim: the address space is divided
// into named regions; execution proceeds through phases, each giving every
// region an access probability. It is the precision instrument for
// exercising tiering policies with exactly known hot/warm/cold splits and
// phase changes.
type Masim struct {
	cfg      MasimConfig
	rng      *stats.RNG
	starts   []int64 // first page of each region
	total    int64
	phase    int
	phaseOps int64
	cum      [][]float64 // cumulative weights per phase
}

// MasimRegion declares one region of the masim address space.
type MasimRegion struct {
	// Name labels the region in diagnostics.
	Name string
	// Pages is the region's size.
	Pages int64
}

// MasimPhase gives each region an access weight for a stretch of ops.
type MasimPhase struct {
	// Ops is the phase length in operations (must be positive).
	Ops int64
	// Weights holds one relative access weight per region (len must equal
	// the region count; weights must be non-negative, not all zero).
	Weights []float64
}

// MasimConfig is a masim scenario.
type MasimConfig struct {
	Regions []MasimRegion
	Phases  []MasimPhase
	// AccessesPerOp is how many page touches one op performs (default 1).
	AccessesPerOp int
	// WriteRatio is the fraction of accesses that are writes.
	WriteRatio float64
	// Seed fixes the access stream.
	Seed uint64
}

// NewMasim validates cfg and builds the workload.
func NewMasim(cfg MasimConfig) (*Masim, error) {
	if len(cfg.Regions) == 0 || len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("workload: masim needs regions and phases")
	}
	m := &Masim{cfg: cfg, rng: stats.NewRNG(cfg.Seed ^ 0x6d6173)}
	for _, r := range cfg.Regions {
		if r.Pages <= 0 {
			return nil, fmt.Errorf("workload: masim region %q has %d pages", r.Name, r.Pages)
		}
		m.starts = append(m.starts, m.total)
		m.total += r.Pages
	}
	for pi, p := range cfg.Phases {
		if p.Ops <= 0 {
			return nil, fmt.Errorf("workload: masim phase %d has non-positive ops", pi)
		}
		if len(p.Weights) != len(cfg.Regions) {
			return nil, fmt.Errorf("workload: masim phase %d has %d weights for %d regions",
				pi, len(p.Weights), len(cfg.Regions))
		}
		cum := make([]float64, len(p.Weights))
		sum := 0.0
		for i, w := range p.Weights {
			if w < 0 {
				return nil, fmt.Errorf("workload: masim phase %d has negative weight", pi)
			}
			sum += w
			cum[i] = sum
		}
		if sum == 0 {
			return nil, fmt.Errorf("workload: masim phase %d has all-zero weights", pi)
		}
		for i := range cum {
			cum[i] /= sum
		}
		m.cum = append(m.cum, cum)
	}
	if m.cfg.AccessesPerOp <= 0 {
		m.cfg.AccessesPerOp = 1
	}
	return m, nil
}

// Name implements Workload.
func (*Masim) Name() string { return "masim" }

// NumPages implements Workload.
func (m *Masim) NumPages() int64 { return m.total }

// Content implements Workload.
func (*Masim) Content() corpus.Profile { return corpus.Mixed }

// BaseOpNs implements Workload.
func (*Masim) BaseOpNs() float64 { return 200 }

// NextOp implements Workload.
func (m *Masim) NextOp(buf []Access) []Access {
	ph := m.cfg.Phases[m.phase]
	m.phaseOps++
	if m.phaseOps >= ph.Ops {
		m.phaseOps = 0
		m.phase = (m.phase + 1) % len(m.cfg.Phases)
	}
	cum := m.cum[m.phase]
	for i := 0; i < m.cfg.AccessesPerOp; i++ {
		u := m.rng.Float64()
		ri := 0
		for ri < len(cum)-1 && u > cum[ri] {
			ri++
		}
		page := m.starts[ri] + m.rng.Int63n(m.cfg.Regions[ri].Pages)
		buf = append(buf, Access{
			Page:  mem.PageID(page),
			Write: m.rng.Float64() < m.cfg.WriteRatio,
		})
	}
	return buf
}

// DefaultMasim returns the artifact-style smoke scenario: three equal
// regions — hot, warm, cold — whose roles rotate each phase, driving
// promotions and demotions through every tier transition.
func DefaultMasim(pagesPerRegion int64, opsPerPhase int64, seed uint64) *Masim {
	m, err := NewMasim(MasimConfig{
		Regions: []MasimRegion{
			{Name: "A", Pages: pagesPerRegion},
			{Name: "B", Pages: pagesPerRegion},
			{Name: "C", Pages: pagesPerRegion},
		},
		Phases: []MasimPhase{
			{Ops: opsPerPhase, Weights: []float64{0.90, 0.09, 0.01}},
			{Ops: opsPerPhase, Weights: []float64{0.01, 0.90, 0.09}},
			{Ops: opsPerPhase, Weights: []float64{0.09, 0.01, 0.90}},
		},
		AccessesPerOp: 2,
		WriteRatio:    0.1,
		Seed:          seed,
	})
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return m
}
