package experiments

import (
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/policy"
	"tierscape/internal/sim"
	"tierscape/internal/telemetry"
)

// noopModel recommends keeping everything in place: it exercises the
// profiling path without any modeling or migration, isolating the
// telemetry tax (Figure 14's "only-profiling" configuration).
type noopModel struct{}

func (noopModel) Name() string { return "only-profiling" }

func (noopModel) Recommend(m *mem.Manager, _ telemetry.Profile) model.Recommendation {
	return model.Keep(m)
}

// remoteRTTNs is the modeled network round trip to a remote solver,
// paid once per window's solve.
const remoteRTTNs = 200_000

// Fig14 reproduces Figure 14: the TierScape tax. Memcached/memtier runs
// under: no daemon (baseline), profiling only, AM-TCO and AM-perf with the
// ILP solver local and remote. Reported as performance relative to the
// baseline (1.0 = no overhead). A remote solve is the local solve plus one
// round trip per window, and the round trip is a wait, not host CPU work,
// so each remote row is its local row with daemon_ms and solver_ms raised
// by windows × remoteRTTNs and rel_perf unchanged.
func Fig14(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 14: TS-Daemon tax (Memcached/memtier)",
		Headers: []string{"config", "rel_perf", "daemon_ms", "solver_ms"},
	}
	spec := workloadByName("Memcached/memtier-1K")
	results, err := runJobs(s, []runJob{
		{spec: spec},
		{spec: spec, mdl: noopModel{}},
		{spec: spec, mdl: &model.Analytical{Alpha: 0.1, ModelName: "AM-TCO"}},
		{spec: spec, mdl: &model.Analytical{Alpha: 0.9, ModelName: "AM-perf"}},
	})
	if err != nil {
		return nil, err
	}
	base, prof := results[0], results[1]
	t.Addf("baseline", 1.0, 0.0, 0.0)
	t.Addf(prof.ModelName, base.AppNs/prof.AppNs, prof.DaemonNs/1e6, prof.TotalSolverNs()/1e6)
	for _, res := range results[2:] {
		relPerf, daemonNs, solverNs := base.AppNs/res.AppNs, res.DaemonNs, res.TotalSolverNs()
		rtt := float64(len(res.Windows)) * remoteRTTNs
		t.Addf(res.ModelName+"-Local", relPerf, daemonNs/1e6, solverNs/1e6)
		t.Addf(res.ModelName+"-Remote", relPerf, (daemonNs+rtt)/1e6, (solverNs+rtt)/1e6)
	}
	t.Note("paper: profiling is minimal; local vs remote solver is a negligible difference")
	t.Note("remote rows are the local rows plus a %.1f ms round trip per window in daemon_ms and solver_ms; rel_perf is the local one, since the round trip is a wait, not host CPU work", remoteRTTNs/1e6)
	return t, nil
}

// SolverAblation reports what the MCKP solver's placement costs and how
// close to the ILP optimum it is proven to be: the largest per-window gap
// between the solve's cost and its LP bound.
func SolverAblation(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: greedy solver vs its LP bound (Memcached/memtier)",
		Headers: []string{"solver", "slowdown_pct", "tco_savings_pct", "solver_ms", "lp_gap_pct_max"},
	}
	spec := workloadByName("Memcached/memtier-1K")
	results, err := runJobs(s, []runJob{
		{spec: spec},
		{spec: spec, mdl: &model.Analytical{Alpha: 0.3, ModelName: "AM-greedy"}},
	})
	if err != nil {
		return nil, err
	}
	base, res := results[0], results[1]
	var gap float64
	for _, w := range res.Windows {
		gap = max(gap, w.SolverLPGap)
	}
	t.Addf("greedy", res.SlowdownPctVs(base), res.SavingsPct(), res.TotalSolverNs()/1e6, 100*gap)
	t.Note("lp_gap_pct_max: no placement within the window's TCO budget has less modeled overhead than cost·(1 − gap)")
	return t, nil
}

// FilterAblation runs AM-TCO with and without the §6.7 migration filter's
// pressure control, showing the filter's thrash protection.
func FilterAblation(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: migration filter on/off (Memcached/YCSB, AM-TCO)",
		Headers: []string{"filter", "slowdown_pct", "tco_savings_pct", "faults", "migrations"},
	}
	spec := workloadByName("Memcached/YCSB") // drifting hot set stresses the filter
	settings := []struct {
		name     string
		pressure float64
	}{
		// 0.25 faults per resident page per window marks a tier pressured
		// under the drifting YCSB pattern. The default (2.0) is the
		// production setting; it drops moves in 57 of `-fig all`'s 236
		// runs at the default scale and 39 at small scale, though at this
		// cell it gives exactly the "off" row.
		{"on", 0.25},
		{"off", 0},
	}
	jobs := []runJob{{spec: spec}}
	for _, cfg := range settings {
		fc := policyConfig(cfg.pressure)
		jobs = append(jobs, runJob{spec: spec,
			mdl: &model.Analytical{Alpha: 0.1, ModelName: "AM-TCO"},
			cfg: func(c *sim.Config) { c.FilterConfig = &fc },
		})
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, cfg := range settings {
		res := results[i+1]
		t.Addf(cfg.name, res.SlowdownPctVs(base), res.SavingsPct(), res.Faults, res.TotalMoves())
	}
	return t, nil
}

// PrefetchAblation evaluates the §3.2 prefetcher the paper leaves as
// future work: aggressive AM placement with the daemon's bulk promote-back
// enabled at different fault thresholds.
func PrefetchAblation(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: §3.2 prefetcher (Memcached/YCSB, AM alpha=0.1)",
		Headers: []string{"threshold", "slowdown_pct", "tco_savings_pct", "faults", "prefetches"},
	}
	spec := workloadByName("Memcached/YCSB")
	thresholds := []int{0, 16, 4}
	jobs := []runJob{{spec: spec}}
	for _, thr := range thresholds {
		jobs = append(jobs, runJob{spec: spec,
			mdl: &model.Analytical{Alpha: 0.1, ModelName: "AM"},
			cfg: func(c *sim.Config) { c.PrefetchFaultThreshold = thr },
		})
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, thr := range thresholds {
		res := results[i+1]
		t.Addf(thr, res.SlowdownPctVs(base), res.SavingsPct(), res.Faults, res.Prefetches)
	}
	t.Note("threshold 0 disables prefetching; lower thresholds trade TCO for fewer demand faults")
	return t, nil
}

// WindowAblation sweeps the profile-window length (in ops), the knob the
// paper notes "may require tuning based on application characteristics"
// (§6.1).
func WindowAblation(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: profile window length (Memcached/YCSB, Waterfall)",
		Headers: []string{"ops_per_window", "slowdown_pct", "tco_savings_pct", "migrations"},
	}
	spec := workloadByName("Memcached/YCSB")
	factors := []int{1, 2, 4}
	var jobs []runJob
	for _, factor := range factors {
		sc := s
		sc.OpsPerWindow = s.OpsPerWindow / factor
		sc.Windows = s.Windows * factor
		jobs = append(jobs,
			runJob{spec: spec, scale: &sc},
			runJob{spec: spec, scale: &sc, mdl: &model.Waterfall{Pct: 25}},
		)
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	for i, factor := range factors {
		base, res := results[2*i], results[2*i+1]
		t.Addf(s.OpsPerWindow/factor, res.SlowdownPctVs(base), res.SavingsPct(), res.TotalMoves())
	}
	return t, nil
}

// policyConfig returns the default filter config with the given pressure
// threshold (0 disables pressure filtering).
func policyConfig(pressure float64) policy.Config {
	c := policy.DefaultConfig()
	c.PressureFaultRate = pressure
	return c
}

// TelemetryAblation compares PEBS-style sampling against GSwap's
// accessed-bit scanning (§10) as the hotness source for the analytical
// model: placement quality (savings, slowdown) and profiling tax.
func TelemetryAblation(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Ablation: PEBS sampling vs accessed-bit scanning (Memcached/YCSB, AM)",
		Headers: []string{"telemetry", "slowdown_pct", "tco_savings_pct", "profiling_ms"},
	}
	spec := workloadByName("Memcached/YCSB")
	sources := []struct {
		name string
		abit bool
	}{
		{"pebs", false},
		{"accessed-bit", true},
	}
	jobs := []runJob{{spec: spec}}
	for _, cfg := range sources {
		abit := cfg.abit
		jobs = append(jobs, runJob{spec: spec,
			mdl: &model.Analytical{Alpha: 0.3, ModelName: "AM"},
			cfg: func(c *sim.Config) { c.AccessBitTelemetry = abit },
		})
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, cfg := range sources {
		res := results[i+1]
		// Profiling tax approximated from the daemon totals minus solver.
		t.Addf(cfg.name, res.SlowdownPctVs(base), res.SavingsPct(), (res.DaemonNs-res.TotalSolverNs())/1e6)
	}
	t.Note("accessed bits see touched pages, PEBS sees access counts; both drive AM usefully")
	return t, nil
}
