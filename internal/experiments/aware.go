package experiments

import (
	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// CompressibilityAware evaluates §9's future-work direction (ii) —
// choosing tiers based on data compressibility. The workload's address
// space mixes whole regions of highly-compressible, text-like and
// incompressible data (corpus.Regional); the compressibility-blind AM uses
// one measured ratio per tier, while the aware AM probes each region's
// actual ratio under each tier's codec. Aware placement should route
// incompressible regions to NVMM instead of wasting (de)compression work
// and pool space on them.
func CompressibilityAware(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Extension: compressibility-aware tier choice (masim over regional data)",
		Headers: []string{"model", "slowdown_pct", "tco_savings_pct", "ct_rejects"},
	}
	// masim over a Regional corpus: every region's hotness is similar
	// enough that compressibility, not temperature, must drive placement.
	spec := WorkloadSpec{Name: "masim/regional", New: func(s Scale) workload.Workload {
		return workload.DefaultMasim(2*mem.RegionPages, int64(s.OpsPerWindow), s.Seed)
	}}
	regional := corpus.Regional
	tiers := lineup{
		// No NVMM escape hatch: compressed tiers are the only savings
		// avenue, so compressibility mistakes are visible as rejects.
		compressed: []ztier.Config{ztier.CT1(), ztier.CT2()},
		content:    &regional,
	}
	variants := []struct {
		name  string
		aware bool
	}{
		{"AM-blind", false},
		{"AM-aware", true},
	}
	jobs := []runJob{{spec: spec, tiers: tiers}}
	for _, cfg := range variants {
		jobs = append(jobs, runJob{spec: spec, tiers: tiers,
			mdl: &model.Analytical{
				Alpha:                0.2,
				ModelName:            cfg.name,
				CompressibilityAware: cfg.aware,
			}})
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, cfg := range variants {
		res := results[i+1]
		t.Addf(cfg.name, res.SlowdownPctVs(base), res.SavingsPct(), res.TotalRejected())
	}
	t.Note("aware probing avoids sending incompressible regions to compressed tiers")
	return t, nil
}
