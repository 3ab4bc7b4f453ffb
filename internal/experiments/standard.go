package experiments

import (
	"fmt"

	"tierscape/internal/media"
	"tierscape/internal/model"
	"tierscape/internal/sim"
	"tierscape/internal/ztier"
)

// Fig1 reproduces Figure 1: Memcached on DRAM + one compressed tier
// (zstd/zsmalloc on DRAM, the TMO-style single tier), placing the coldest
// 20%, 50% and 80% of the data in the compressed tier — the naive
// aggressive-placement policy whose drawbacks the figure illustrates.
// Savings rise with placement aggressiveness — and so does the slowdown.
func Fig1(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 1: aggressiveness of single-compressed-tier placement (Memcached)",
		Headers: []string{"placement", "tco_savings_pct", "slowdown_pct"},
	}
	spec := workloadByName("Memcached/memtier-1K")
	tiers := lineup{compressed: []ztier.Config{{Codec: "zstd", Pool: "zsmalloc", Media: media.DRAM}}}
	fracs := []float64{0.2, 0.5, 0.8}
	jobs := []runJob{{spec: spec, tiers: tiers}}
	for _, frac := range fracs {
		// TMO*'s policy on the lineup's one tier, under the figure's name.
		mdl := tiers.baseline(model.TMOStar, frac*100)
		mdl.ModelName = fmt.Sprintf("place-%.0f%%", frac*100)
		jobs = append(jobs, runJob{spec: spec, tiers: tiers, mdl: mdl})
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, frac := range fracs {
		res := results[i+1]
		t.Addf(fmt.Sprintf("%.0f%%", frac*100), res.SavingsPct(), res.SlowdownPctVs(base))
	}
	t.Note("paper: 20%%->11%% savings/9.5%% slowdown, 50%%->16%%/13.5%%, 80%%->32%%/20%%")
	return t, nil
}

// Fig7 reproduces Figure 7: performance slowdown and memory TCO savings
// versus all-DRAM for HeMem*, GSwap*, TMO*, Waterfall, AM-TCO and AM-perf
// on the standard tier mix, for every workload.
func Fig7(s Scale) (*Table, error) { return fig7(s, Workloads()) }

// fig7 is Fig7 over an explicit workload lineup.
func fig7(s Scale, specs []WorkloadSpec) (*Table, error) {
	t := &Table{
		Title:   "Figure 7: standard mix of tiers — slowdown vs TCO savings",
		Headers: []string{"workload", "model", "slowdown_pct", "tco_savings_pct", "faults"},
	}
	nModels := len(standardModels())
	// One job per (workload, model) pair, plus one baseline per workload;
	// every run is independent, so the whole matrix fans out in parallel.
	// Models are constructed per job, never shared across jobs.
	var jobs []runJob
	for _, spec := range specs {
		jobs = append(jobs, runJob{spec: spec})
		for mi := 0; mi < nModels; mi++ {
			jobs = append(jobs, runJob{spec: spec, mdl: standardModels()[mi]})
		}
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	for wi, spec := range specs {
		base := results[wi*(nModels+1)]
		for mi := 0; mi < nModels; mi++ {
			res := results[wi*(nModels+1)+1+mi]
			t.Addf(spec.Name, res.ModelName, res.SlowdownPctVs(base),
				res.SavingsPct(), res.Faults)
		}
	}
	t.Note("paper shape: AM-TCO gives the best savings at modest slowdown; AM-perf the least slowdown")
	return t, nil
}

// Fig8 reproduces Figure 8: the Waterfall model's per-window placement for
// Memcached/YCSB and the resulting TCO trend.
func Fig8(s Scale) (*Table, error) {
	spec := workloadByName("Memcached/YCSB")
	res, err := runOne(s, runJob{spec: spec, mdl: &model.Waterfall{Pct: 25}})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 8: Waterfall placement per window (Memcached/YCSB)",
		Headers: []string{"window", "dram", "nvmm", "ct1", "ct2", "tco", "tco_savings_pct"},
	}
	max := res.TCOMax
	for _, w := range res.Windows {
		t.Addf(w.Window, w.TierPages[0], w.TierPages[1], w.TierPages[2], w.TierPages[3],
			w.TCO, w.SavingsPctVs(max))
	}
	t.Note("pages first waterfall to NVMM, then age toward CT-2; TCO falls over windows")
	return t, nil
}

// Fig9 reproduces Figure 9: AM-TCO's recommendations vs. actual placement,
// cumulative compressed-tier faults, and the TCO trend for Memcached/YCSB
// (whose hot set drifts — §8.2.2's deep dive).
func Fig9(s Scale) (*Table, error) {
	spec := workloadByName("Memcached/YCSB")
	res, err := runOne(s, runJob{spec: spec, mdl: &model.Analytical{Alpha: 0.1, ModelName: "AM-TCO"}})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 9: AM-TCO recommendation vs actual placement (Memcached/YCSB)",
		Headers: []string{"window", "rec_dram", "rec_nvmm", "rec_ct1", "rec_ct2",
			"act_dram", "act_nvmm", "act_ct1", "act_ct2", "ct_faults", "tco"},
	}
	for _, w := range res.Windows {
		rp := w.RecommendedPages
		t.Addf(w.Window, rp[0], rp[1], rp[2], rp[3],
			w.TierPages[0], w.TierPages[1], w.TierPages[2], w.TierPages[3],
			w.Faults, w.TCO)
	}
	t.Note("drifting access pattern faults CT pages back to DRAM/NVMM, so actuals lag recommendations")
	return t, nil
}

// Fig10 reproduces Figure 10: the knob sweep. AM runs at five α values;
// HeMem*, GSwap*, TMO* and Waterfall run at two thresholds (P25, P75).
func Fig10(s Scale) (*Table, error) {
	return fig10With(s, nil)
}

// fig10With is Fig10 with cfg (when not nil) applied to every job's
// sim.Config, so tests can rerun the whole sweep on a constrained manager
// — e.g. a clamped CT-1 pool that forces ErrTierFull fallbacks in every
// run — and assert the table stays byte-identical across push-thread
// counts.
func fig10With(s Scale, cfg func(*sim.Config)) (*Table, error) {
	t := &Table{
		Title:   "Figure 10: multi-objective tuning (Memcached/YCSB)",
		Headers: []string{"config", "slowdown_pct", "tco_savings_pct"},
	}
	spec := workloadByName("Memcached/YCSB")
	jobs := []runJob{{spec: spec, cfg: cfg}}
	var labels []string
	for _, alpha := range []float64{0.9, 0.7, 0.5, 0.3, 0.1} {
		name := fmt.Sprintf("AM-a%.1f", alpha)
		labels = append(labels, name)
		jobs = append(jobs, runJob{spec: spec, mdl: &model.Analytical{Alpha: alpha, ModelName: name}, cfg: cfg})
	}
	mix := standardMix()
	for _, pct := range []float64{25, 75} {
		for _, mdl := range []model.Model{
			mix.baseline(model.HeMemStar, pct),
			mix.baseline(model.GSwapStar, pct),
			mix.baseline(model.TMOStar, pct),
			&model.Waterfall{Pct: pct},
		} {
			labels = append(labels, fmt.Sprintf("%s-P%.0f", mdl.Name(), pct))
			jobs = append(jobs, runJob{spec: spec, mdl: mdl, cfg: cfg})
		}
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, label := range labels {
		res := results[i+1]
		t.Addf(label, res.SlowdownPctVs(base), res.SavingsPct())
	}
	t.Note("AM's alpha traces a savings/slowdown frontier; baselines are fixed points")
	return t, nil
}

// Fig11 reproduces Figure 11: Redis op latency (average, P95, P99.9)
// normalized to the all-DRAM baseline for every tiering technique.
func Fig11(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 11: Redis latency normalized to DRAM",
		Headers: []string{"model", "avg", "p95", "p99.9"},
	}
	spec := workloadByName("Redis/YCSB")
	jobs := []runJob{{spec: spec}}
	for mi := range standardModels() {
		jobs = append(jobs, runJob{spec: spec, mdl: standardModels()[mi]})
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	base := results[0]
	bAvg, bP95, bP999 := base.OpLat.Mean(), base.OpLat.Percentile(95), base.OpLat.Percentile(99.9)
	for _, res := range results[1:] {
		t.Addf(res.ModelName,
			res.OpLat.Mean()/bAvg,
			res.OpLat.Percentile(95)/bP95,
			res.OpLat.Percentile(99.9)/bP999)
	}
	t.Note("paper: TierScape's scattering keeps tails lower than two-tier baselines;")
	t.Note("TMO* beats HeMem* on average latency (promote-on-first-fault, §8.2.4)")
	return t, nil
}
