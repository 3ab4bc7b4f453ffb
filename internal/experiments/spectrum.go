package experiments

import (
	"fmt"

	"tierscape/internal/model"
)

// aggressiveness maps the paper's conservative/moderate/aggressive
// settings to thresholds and knob values (§8.3: percentiles 25/50/75,
// α 0.9/0.5/0.1).
var aggressiveness = []struct {
	Suffix string
	Pct    float64
	Alpha  float64
}{
	{"-C", 25, 0.9},
	{"-M", 50, 0.5},
	{"-A", 75, 0.1},
}

// Fig12 reproduces Figure 12: final data placement recommendations across
// the six-tier spectrum for Waterfall and the analytical model at three
// aggressiveness levels (Memcached).
func Fig12(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 12: placement across 6 tiers by aggressiveness (Memcached)",
		Headers: []string{"config", "dram", "C1", "C2", "C4", "C7", "C12"},
	}
	spec := workloadByName("Memcached/memtier-1K") // stable pattern shows placement clearly
	var names []string
	var jobs []runJob
	for _, agg := range aggressiveness {
		names = append(names, "WF"+agg.Suffix, "AM"+agg.Suffix)
		jobs = append(jobs,
			runJob{spec: spec, tiers: spectrum(), mdl: &model.Waterfall{Pct: agg.Pct}},
			runJob{spec: spec, tiers: spectrum(),
				mdl: &model.Analytical{Alpha: agg.Alpha, ModelName: "AM" + agg.Suffix}},
		)
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		last := res.Windows[len(res.Windows)-1]
		t.Addf(names[i], last.TierPages[0], last.TierPages[1], last.TierPages[2],
			last.TierPages[3], last.TierPages[4], last.TierPages[5])
	}
	t.Note("tiers: C1=ZB-L4-DR C2=ZB-L4-OP C4=ZS-L4-OP C7=ZS-LO-DR C12=ZS-DE-OP")
	return t, nil
}

// Fig13 reproduces Figure 13: slowdown and TCO savings on the six-tier
// spectrum for GSwap* tiering (GS), Waterfall (WF) and the analytical
// model (AM), each at conservative/moderate/aggressive settings, for
// every workload.
func Fig13(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 13: six-tier spectrum — slowdown vs TCO savings",
		Headers: []string{"workload", "config", "slowdown_pct", "tco_savings_pct"},
	}
	specs := Workloads()
	type cfg struct {
		name string
		mdl  func() model.Model // fresh instance per job
	}
	var configs []cfg
	for _, agg := range aggressiveness {
		configs = append(configs,
			cfg{"GS" + agg.Suffix, func() model.Model { return spectrum().baseline(model.GSwapStar, agg.Pct) }},
			cfg{"WF" + agg.Suffix, func() model.Model { return &model.Waterfall{Pct: agg.Pct} }},
			cfg{"AM" + agg.Suffix, func() model.Model {
				return &model.Analytical{Alpha: agg.Alpha, ModelName: "AM" + agg.Suffix}
			}},
		)
	}
	var jobs []runJob
	for _, spec := range specs {
		jobs = append(jobs, runJob{spec: spec, tiers: spectrum()})
		for _, c := range configs {
			jobs = append(jobs, runJob{spec: spec, tiers: spectrum(), mdl: c.mdl()})
		}
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	stride := len(configs) + 1
	for wi, spec := range specs {
		base := results[wi*stride]
		for ci, c := range configs {
			res := results[wi*stride+1+ci]
			t.Addf(spec.Name, c.name, res.SlowdownPctVs(base), res.SavingsPct())
		}
	}
	t.Note("paper shape: WF/AM reach savings GSwap* cannot, at similar or better slowdown (§8.3.1)")
	return t, nil
}

// TierCountAblation quantifies §8.3.2's "why multiple compressed tiers?"
// as achievable savings: AM runs on 1, 2 and 5 compressed tiers at every
// α in 0.1 … 0.9, and each lineup reports its best TCO savings, and the α
// that gives it, among the runs whose slowdown is within each budget. A
// lineup with no run inside a budget reports the all-DRAM baseline's 0.
func TierCountAblation(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: achievable TCO savings vs number of compressed tiers (Memcached)",
		Headers: []string{"tiers", "savings_le5_pct", "alpha_le5", "savings_le10_pct", "alpha_le10"},
	}
	spec := workloadByName("Memcached/memtier-1K")
	// The single tier is GSwap's (C7), the pair adds C12, and five is the
	// whole spectrum.
	full := spectrum()
	lineups := []lineup{
		{compressed: full.compressed[3:4]},
		{compressed: full.compressed[3:5]},
		full,
	}
	alphas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	budgets := []float64{5, 10} // slowdown %, fixed before any run
	var jobs []runJob
	for _, tiers := range lineups {
		jobs = append(jobs, runJob{spec: spec, tiers: tiers})
		for _, alpha := range alphas {
			jobs = append(jobs, runJob{spec: spec, tiers: tiers, mdl: &model.Analytical{Alpha: alpha}})
		}
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	stride := 1 + len(alphas)
	for i, tiers := range lineups {
		base, runs := results[i*stride], results[i*stride+1:(i+1)*stride]
		row := []interface{}{len(tiers.compressed)}
		for _, budget := range budgets {
			best, at := 0.0, "-"
			for j, res := range runs {
				if sv := res.SavingsPct(); res.SlowdownPctVs(base) <= budget && sv > best {
					best, at = sv, fmt.Sprintf("%.1f", alphas[j])
				}
			}
			row = append(row, best, at)
		}
		t.Addf(row...)
	}
	t.Note("best savings over alpha 0.1..0.9 within slowdown <= 5%% and <= 10%%; more tiers widen the trade-off space (paper: Memcached's achievable savings grew 40%%->55%%)")
	return t, nil
}
