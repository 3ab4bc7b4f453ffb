package experiments

import (
	"tierscape/internal/media"
	"tierscape/internal/model"
	"tierscape/internal/ztier"
)

// CXLVariant demonstrates the artifact's claim (Appendix A.1) that
// TierScape works with any memory tier "with appropriate changes in the
// config files": the standard mix is re-created with CXL-attached memory
// in place of Optane — both as the byte-addressable slow tier and as
// CT-2's backing medium — and AM/Waterfall run unchanged.
func CXLVariant(s Scale) (*Table, error) {
	t := &Table{
		Title:   "CXL variant: Optane-backed vs CXL-backed standard mix (Memcached/YCSB)",
		Headers: []string{"substrate", "model", "slowdown_pct", "tco_savings_pct"},
	}
	spec := workloadByName("Memcached/YCSB")

	substrates := []struct {
		name  string
		tiers lineup
	}{
		{"optane", standardMix()},
		{"cxl", lineup{
			byteTiers:  []media.Kind{media.CXL},
			compressed: []ztier.Config{ztier.CT1(), {Codec: "zstd", Pool: "zsmalloc", Media: media.CXL}},
		}},
	}
	var jobs []runJob
	for _, b := range substrates {
		jobs = append(jobs,
			runJob{spec: spec, tiers: b.tiers},
			runJob{spec: spec, tiers: b.tiers, mdl: &model.Waterfall{Pct: 25}},
			runJob{spec: spec, tiers: b.tiers, mdl: model.AMTCO()},
		)
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	for bi, b := range substrates {
		base := results[3*bi]
		for _, res := range results[3*bi+1 : 3*bi+3] {
			t.Addf(b.name, res.ModelName, res.SlowdownPctVs(base), res.SavingsPct())
		}
	}
	t.Note("CXL costs 0.5x DRAM vs Optane's 0.33x, but loads in 170ns vs 350ns:")
	t.Note("the CXL substrate trades some savings for lower slowdown, no code changes")
	return t, nil
}
