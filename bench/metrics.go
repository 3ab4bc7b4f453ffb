package main

import (
	"tierscape/internal/experiments"
	"tierscape/internal/obs"
	"tierscape/internal/stats"
)

// metricDef names one metric. BENCHMARK.json carries the same names,
// units and directions (bench_test.go checks they agree); the bounds live
// only there.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics the driver gates, defined on all four
// workloads. Host time except tco_savings_pct, which is modeled: the same
// seed gives the same value on every host.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_ops_per_s", "ops/s", "higher"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"allocs_per_op", "allocs/op", "lower"},
	{"retained_heap_mb", "MB", "lower"},
	{"tco_savings_pct", "%", "higher"},
}

// timedExtras are printed and compared from the timed run but not gated
// by the driver. fig_sweep exposes no Step and no sim.Result, and the
// driver wants every gated metric on every workload; the traced run
// carries the same quantities as sim.step_ns_p50/p90 and sim.modeled_*.
// cpu_s (getrusage user+sys over one round) moved by up to 29 % between
// two sets of runs of one binary while the wall moved 13 %: the idle
// second P soaks up GC mark work for as long as a cycle lasts, so on a
// shared host it cannot hold a 25 % bound.
var timedExtras = []metricDef{
	{"cpu_s", "s", "lower"},
	{"step_wall_ms_p50", "ms", "lower"},
	{"step_wall_ms_p90", "ms", "lower"},
	{"modeled_ops_per_s", "ops/s", "higher"},
	{"modeled_op_p999_us", "us", "lower"},
}

// runInfo describes a run rather than the program: how many samples are
// behind the medians, and the peak RSS, which moves ±20 % with GC timing
// and is therefore printed but never compared.
var runInfo = []metricDef{
	{"step_samples", "count", "higher"},
	{"setup_samples", "count", "higher"},
	{"rounds", "count", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// modeled are the metrics that are functions of the seed alone; -compare
// requires them to be identical between two captures of one seed.
var modeled = map[string]bool{
	"tco_savings_pct": true, "modeled_ops_per_s": true, "modeled_op_p999_us": true,
	"sim.modeled_ops_per_s": true, "sim.modeled_op_p999_us": true,
	"mem.faults": true, "mem.moved_pages": true, "mem.rejected_pages": true,
	"mem.skipped_pages": true, "mem.tier_full_moves": true, "mem.compacted_pages": true,
}

var (
	tierLabels  = []string{"CT-1", "CT-2", "C1", "C2", "C4", "C7", "C12"}
	codecLabels = []string{"lz4", "lzo", "zstd", "deflate"}
	poolLabels  = []string{"zsmalloc", "zbud"}
)

// perLayer lists the traced run's metrics, layer by layer. A metric a
// workload does not exercise (a tier it does not have, the daemon on a
// batch run) is 0 in the driver's JSON line and left out of the table.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit, better})
		}
	}
	add("count", "higher", "workload.ops", "workload.accesses")
	add("ns", "lower", "workload.next_op_ns_per_op")
	add("s", "lower", "workload.build_s")
	add("ns", "lower", "stats.zipf_next_ns", "stats.summary_add_ns")
	add("B/op", "lower", "stats.summary_bytes_per_op")
	add("ns", "lower", "corpus.fill_ns_per_page", "telemetry.record_ns_per_access", "telemetry.end_window_ns")
	add("count", "higher", "telemetry.samples")
	add("ns", "lower", "mem.access_hit_ns")
	for _, t := range tierLabels {
		add("ns", "lower", "mem.fault_ns."+t, "mem.demote_ns_per_page."+t)
	}
	add("ns", "lower", "mem.ct2ct_fastpath_ns_per_page", "mem.prepare_ns_per_page", "mem.commit_ns_per_page", "mem.compact_budgeted_ns")
	add("count", "lower", "mem.faults", "mem.moved_pages", "mem.rejected_pages", "mem.skipped_pages", "mem.tier_full_moves", "mem.compacted_pages")
	for _, t := range tierLabels {
		add("ns", "lower", "ztier."+t+".store_ns_per_page", "ztier."+t+".load_ns_per_page")
	}
	for _, p := range poolLabels {
		add("ns", "lower", "zpool."+p+".store_ns", "zpool."+p+".load_ns", "zpool."+p+".free_ns", "zpool."+p+".compact_ns_per_reclaimed_page")
		add("ratio", "higher", "zpool."+p+".density")
	}
	for _, c := range codecLabels {
		add("ns", "lower", "compress."+c+".compress_ns_per_page", "compress."+c+".decompress_ns_per_page")
		add("ratio", "lower", "compress."+c+".ratio")
		add("B/page", "lower", "compress."+c+".alloc_bytes_per_page")
	}
	add("count", "lower", "compress.roundtrip_failures")
	add("ns", "lower", "model.recommend_ns_per_window")
	add("count", "higher", "model.recommends")
	add("ratio", "higher", "model.warm_hit_share")
	add("count", "lower", "model.solver_fallbacks")
	add("ns", "lower", "ilp.solve_greedy_ns", "policy.plan_ns_per_window")
	add("count", "lower", "policy.dropped_moves")
	add("ns", "lower", "sim.step_ns", "sim.step_ns_p50", "sim.step_ns_p90",
		"sim.phase_profile_ns", "sim.phase_solve_ns", "sim.phase_plan_ns", "sim.phase_apply_ns", "sim.phase_compact_ns",
		"sim.access_loop_ns", "sim.access_self_ns", "sim.apply_prepare_ns", "sim.apply_commit_ns", "sim.apply_stall_ns")
	add("count", "lower", "sim.apply_blocked_awaits")
	add("count", "higher", "sim.apply_jobs")
	add("ratio", "higher", "sim.apply_parallel_efficiency")
	add("ops/s", "higher", "sim.modeled_ops_per_s")
	add("us", "lower", "sim.modeled_op_p999_us")
	add("ns", "lower", "obs.record_ns_per_window", "obs.scrape_ns")
	add("B", "lower", "obs.scrape_bytes")
	add("ns", "lower", "daemon.tick_ns_p50", "daemon.tick_ns_p90", "daemon.command_wait_ns", "daemon.attach_ns")
	add("count", "higher", "daemon.ticks")
	add("count", "lower", "daemon.commands_failed")
	add("count", "higher", "experiments.jobs")
	add("s", "lower", "experiments.wall_s", "experiments.cpu_s")
	add("ratio", "higher", "experiments.parallel_efficiency")
	add("%", "lower", "trace_overhead_pct")
	return d
}

// simPushThreads is the stepper's default apply concurrency, which bench
// leaves untouched; WindowRuntime does not carry it.
const simPushThreads = 2

// layerMetrics turns one traced round into per-layer values. Times are
// means per window unless the name says otherwise.
func layerMetrics(r *round) map[string]float64 {
	out := map[string]float64{
		"workload.build_s":       r.buildS,
		"mem.faults":             float64(r.counts.Faults),
		"mem.moved_pages":        float64(r.counts.Moved),
		"mem.rejected_pages":     float64(r.counts.Rejected),
		"mem.skipped_pages":      float64(r.counts.Skipped),
		"mem.tier_full_moves":    float64(r.counts.TierFullMoves),
		"mem.compacted_pages":    float64(r.counts.Compacted),
		"policy.dropped_moves":   float64(r.counts.DroppedMoves),
		"model.recommends":       float64(r.counts.Recommends),
		"model.solver_fallbacks": float64(r.counts.SolverFallbacks),
		"sim.modeled_ops_per_s":  r.modeledOps,
		"sim.modeled_op_p999_us": r.modeledP999,
	}
	if r.counts.Recommends > 0 {
		out["model.warm_hit_share"] = float64(r.counts.WarmHits) / float64(r.counts.Recommends)
	}
	if len(r.scrapeNs) > 0 {
		out["obs.scrape_ns"] = median(r.scrapeNs)
		out["obs.scrape_bytes"] = float64(r.scrapeB)
	}

	var ws []windowTrace
	for _, rt := range r.runs {
		ws = append(ws, rt.done...)
		rt.done = nil
	}
	if n := float64(len(ws)); n > 0 {
		var step, ops, accesses, nextOp, recommend, access, sink, prepare, commit, stall float64
		var phase [obs.NumPhases]float64
		var blocked, jobs float64
		steps := make([]float64, len(ws))
		for i := range ws {
			w := &ws[i]
			steps[i] = float64(w.stepEnd.Sub(w.stepStart))
			step += steps[i]
			ops += float64(w.ops)
			accesses += float64(w.accesses)
			nextOp += w.nextOpNs
			recommend += float64(w.recommend.Sub(w.recommendAt))
			access += float64(w.accessEnd().Sub(w.stepStart))
			sink += w.sinkNs
			for p := range phase {
				phase[p] += w.rt.PhaseWallNs[p]
			}
			prepare += w.rt.PrepareWallNs
			commit += w.rt.CommitWallNs
			stall += float64(w.rt.Sched.StallNs)
			blocked += float64(w.rt.Sched.BlockedAwaits)
			jobs += float64(w.rt.Sched.Jobs)
		}
		out["workload.ops"] = ops
		out["workload.accesses"] = accesses
		out["workload.next_op_ns_per_op"] = nextOp / ops
		out["model.recommend_ns_per_window"] = recommend / n
		out["policy.plan_ns_per_window"] = phase[obs.PhasePlan] / n
		out["sim.step_ns"] = step / n
		out["sim.step_ns_p50"] = stats.PercentileOf(steps, 50)
		out["sim.step_ns_p90"] = stats.PercentileOf(steps, 90)
		for p := range phase {
			out["sim.phase_"+obs.Phase(p).String()+"_ns"] = phase[p] / n
		}
		out["sim.access_loop_ns"] = access / n
		out["sim.access_self_ns"] = (access - nextOp) / n
		out["sim.apply_prepare_ns"] = prepare / n
		out["sim.apply_commit_ns"] = commit / n
		out["sim.apply_stall_ns"] = stall / n
		out["sim.apply_blocked_awaits"] = blocked
		out["sim.apply_jobs"] = jobs
		if a := phase[obs.PhaseApply]; a > 0 {
			out["sim.apply_parallel_efficiency"] = (prepare + commit) / (a * simPushThreads)
		}
		if r.runs[0].sink != nil {
			out["obs.record_ns_per_window"] = sink / n
		}
	}

	if len(r.statusNs) > 0 { // daemon_multi
		ticks := make([]float64, len(r.stepNs))
		for i := range ticks {
			ticks[i] = r.stepNs[i] - r.statusNs[i] - r.scrapeNs[i]
		}
		out["daemon.tick_ns_p50"] = stats.PercentileOf(ticks, 50)
		out["daemon.tick_ns_p90"] = stats.PercentileOf(ticks, 90)
		out["daemon.command_wait_ns"] = median(r.statusNs)
		out["daemon.attach_ns"] = median(r.attachNs)
		out["daemon.ticks"] = float64(len(ticks))
		out["daemon.commands_failed"] = float64(r.failed)
	}

	if r.vars != nil { // fig_sweep: the runner's own sums, read from its Live
		windows := num(r.vars["windows"])
		out["experiments.jobs"] = float64(len(experiments.Workloads()) * (1 + figModels))
		out["experiments.wall_s"] = r.use.wallS
		out["experiments.cpu_s"] = r.use.cpuS
		out["experiments.parallel_efficiency"] = r.use.cpuS / (r.use.wallS * float64(experiments.Parallelism()))
		out["model.recommends"] = windows
		for _, kv := range [][2]string{
			{"mem.moved_pages", "moved_pages"}, {"mem.rejected_pages", "rejected_pages"},
			{"mem.skipped_pages", "skipped_pages"}, {"mem.tier_full_moves", "tier_full_moves"},
			{"mem.compacted_pages", "compacted_pages"}, {"model.solver_fallbacks", "solver_fallbacks"},
			{"sim.apply_blocked_awaits", "sched_blocked"},
		} {
			out[kv[0]] = num(r.vars[kv[1]])
		}
		out["policy.dropped_moves"] = num(r.vars["dropped_pressure"]) + num(r.vars["dropped_capacity"]) + num(r.vars["dropped_budget"])
		if windows > 0 {
			phases, _ := r.vars["phase_wall_ns"].(map[string]float64)
			for p := 0; p < obs.NumPhases; p++ {
				name := obs.Phase(p).String()
				out["sim.phase_"+name+"_ns"] = phases[name] / windows
			}
			out["policy.plan_ns_per_window"] = phases["plan"] / windows
			out["sim.apply_prepare_ns"] = num(r.vars["prepare_wall_ns"]) / windows
			out["sim.apply_commit_ns"] = num(r.vars["commit_wall_ns"]) / windows
			out["sim.apply_stall_ns"] = num(r.vars["sched_stall_ns"]) / windows
			if a := phases["apply"]; a > 0 {
				out["sim.apply_parallel_efficiency"] = (num(r.vars["prepare_wall_ns"]) + num(r.vars["commit_wall_ns"])) / (a * simPushThreads)
			}
		}
	}
	return out
}

// num reads a Live.Vars() counter, which is int64 or float64.
func num(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}
