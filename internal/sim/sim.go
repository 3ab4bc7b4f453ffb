// Package sim ties the TierScape reproduction together: it drives a
// workload's operations through the tiered memory manager on a virtual
// clock, runs the PEBS-style profiler, and executes the TS-Daemon control
// loop (§7.2) at every profile-window boundary:
//
//	profile window ends → model recommends per-region tiers →
//	policy filter prunes the plan → migration engine applies it.
//
// All latencies are modeled nanoseconds on the virtual clock; the wall
// time of this Go process never affects results. Application time
// accumulates op compute cost plus every memory access's modeled latency
// (Eq. 4); daemon work (profiling tax, ILP solve, migration copies and
// (de)compressions) is tracked separately and bleeds into application
// time only through a fixed 2 % interference factor (step.go).
//
// Migration application uses real push threads (the artifact's PT
// parameter): each window's plan is applied by pushThreads (2) goroutines
// against the shared manager (see apply.go). The interference charge
// derives from the measured apply work — the summed modeled latency of
// the moves the pool actually performed — and is independent of the
// thread count, because cache and bandwidth contention scale with bytes
// moved, not with how many threads move them. Results are byte-identical
// at every thread count and every GOMAXPROCS; both only change wall-clock
// speed.
//
// Observability: every window boundary emits a deterministic
// obs.WindowSnapshot (retained on Result.Windows regardless of
// configuration) and, when Config.Recorder is set, streams the window's
// per-move events in job order plus an obs.WindowRuntime carrying the
// wall-clock span trace of the control loop (profile → solve → plan →
// apply → compact) and the push threads' waits for the commit turn.
// With a nil Recorder the loop takes none of the clock readings — the
// instrumented paths cost a nil check and nothing else.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/policy"
	"tierscape/internal/stats"
	"tierscape/internal/workload"
)

// Config configures one simulation run.
type Config struct {
	// Manager is the tiered memory system (required).
	Manager *mem.Manager
	// Workload drives accesses (required).
	Workload workload.Workload
	// Model places regions each window; nil runs without tiering (the
	// all-DRAM baseline).
	Model model.Model
	// FilterConfig tunes the migration filter (zero value = defaults).
	FilterConfig *policy.Config
	// OpsPerWindow is the number of workload operations per profile
	// window (the window length in virtual time follows from it).
	OpsPerWindow int
	// Windows is how many profile windows to run.
	Windows int
	// SampleRate is the profiler's sampling period: one sample per
	// SampleRate accesses. 0 uses telemetry.DefaultSampleRate, the paper's
	// 1-in-5000 (tests use smaller workloads and denser sampling);
	// negative is an error. Either hotness source cools prior hotness
	// by the fixed telemetry.DefaultCooling (0.5) at each window
	// boundary.
	SampleRate int
	// PrefetchFaultThreshold enables the §3.2 prefetcher: when a region
	// accumulates this many compressed-tier faults within one window, the
	// daemon proactively decompresses the whole region back to DRAM
	// instead of letting the application eat per-page fault latency.
	// 0 disables prefetching (the paper's default system); negative is an
	// error.
	PrefetchFaultThreshold int
	// AccessBitTelemetry swaps the PEBS-style sampler for GSwap's
	// accessed-bit scanning (§10): binary touched-page hotness whose scan
	// tax scales with memory size instead of access rate.
	AccessBitTelemetry bool
	// Recorder receives the run's observability events: one
	// WindowSnapshot per window, the applied moves in job order, and the
	// wall-clock WindowRuntime trace. Nil disables recording entirely —
	// Result.Windows is still populated, but no clocks are read and no
	// events are built. Recording never changes results: snapshots and
	// move events are deterministic, and runtime telemetry does not feed
	// back into the simulation.
	Recorder obs.Recorder
}

// WindowRecord is one profile window's deterministic outcome. It is an
// alias for obs.WindowSnapshot — the simulator emits the observability
// layer's snapshot type directly, so Result.Windows, the JSONL/CSV sinks
// and the live endpoints all share one schema.
type WindowRecord = obs.WindowSnapshot

// Result summarizes a run.
type Result struct {
	// WorkloadName and ModelName echo the configuration.
	WorkloadName, ModelName string
	// Ops is total operations executed.
	Ops int64
	// AppNs is total application virtual time.
	AppNs float64
	// DaemonNs is total daemon virtual work.
	DaemonNs float64
	// OpLat counts every op's latency by distinct value, for exact mean
	// and percentile reporting (Fig 11's p99.9). Its size follows the
	// number of distinct latencies a run produces — 2 on the ledger's
	// kv_steady, 1–170 on daemon_multi's tenants, 5 606 on spectrum_churn
	// — not the number of ops, so a resident stepper's Result does not
	// grow with uptime.
	OpLat *stats.Summary
	// Windows holds per-window records.
	Windows []WindowRecord
	// TCOMax is the all-DRAM TCO (Eq. TCO_max).
	TCOMax float64
	// AvgTCO is the time-weighted average TCO across windows.
	AvgTCO float64
	// FinalTCO is the TCO after the last window.
	FinalTCO float64
	// Faults is total compressed-tier faults.
	Faults int64
	// Prefetches counts regions proactively promoted by the prefetcher.
	Prefetches int64
}

// ThroughputOpsPerSec returns ops per virtual second.
func (r *Result) ThroughputOpsPerSec() float64 {
	if r.AppNs == 0 {
		return 0
	}
	return float64(r.Ops) / (r.AppNs / 1e9)
}

// SavingsPct returns the time-averaged TCO savings versus all-DRAM, in
// percent.
func (r *Result) SavingsPct() float64 {
	if r.TCOMax == 0 {
		return 0
	}
	return (r.TCOMax - r.AvgTCO) / r.TCOMax * 100
}

// SlowdownPctVs returns this run's slowdown versus a baseline run, in
// percent (positive = slower).
func (r *Result) SlowdownPctVs(baseline *Result) float64 {
	if baseline.AppNs == 0 {
		return 0
	}
	return (r.AppNs/baseline.AppNs - 1) * 100
}

// TotalSolverNs sums the per-window solver time — the modeling tax the
// ablation harnesses report.
func (r *Result) TotalSolverNs() float64 {
	var sum float64
	for i := range r.Windows {
		sum += r.Windows[i].SolverNs
	}
	return sum
}

// TotalMoves sums the per-window migrated page counts.
func (r *Result) TotalMoves() int {
	var sum int
	for i := range r.Windows {
		sum += r.Windows[i].Moves
	}
	return sum
}

// TotalRejected sums the per-window rejected (fallback-placed) page
// counts.
func (r *Result) TotalRejected() int {
	var sum int
	for i := range r.Windows {
		sum += r.Windows[i].Rejected
	}
	return sum
}

// Run executes the simulation: Windows steps of the control loop, then
// the finalized Result. The loop body lives in Stepper (step.go), shared
// with the resident daemon; Run is exactly NewStepper + Windows × Step +
// Result, which is what makes daemon-driven and batch runs byte-identical
// on the same configuration.
func Run(cfg Config) (*Result, error) {
	if cfg.Manager == nil || cfg.Workload == nil {
		return nil, errors.New("sim: Manager and Workload are required")
	}
	if cfg.OpsPerWindow <= 0 || cfg.Windows <= 0 {
		return nil, fmt.Errorf("sim: OpsPerWindow (%d) and Windows (%d) must be positive",
			cfg.OpsPerWindow, cfg.Windows)
	}
	s, err := NewStepper(cfg)
	if err != nil {
		return nil, err
	}
	for w := 0; w < cfg.Windows; w++ {
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s.Result(), nil
}

// wallSince returns the wall nanoseconds since *t0 and advances *t0 to
// now — the span clock for the per-window phase trace.
func wallSince(t0 *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*t0)
	*t0 = now
	return float64(d)
}

// migrationFlows aggregates one window's applied plan into the src→dst
// migration matrix, sorted by (From, To). Deterministic: plan order and
// per-move outcomes are both push-thread-invariant.
func migrationFlows(moves []policy.Move, applied []mem.MigrationResult) []obs.TierFlow {
	if len(moves) == 0 {
		return nil
	}
	idx := make(map[[2]int]int, 8)
	var flows []obs.TierFlow
	for i, mv := range moves {
		key := [2]int{int(mv.From), int(mv.Dest)}
		j, ok := idx[key]
		if !ok {
			j = len(flows)
			idx[key] = j
			flows = append(flows, obs.TierFlow{From: key[0], To: key[1]})
		}
		flows[j].Pages += int64(applied[i].Moved)
		flows[j].Rejected += int64(applied[i].Rejected)
	}
	sort.Slice(flows, func(a, b int) bool {
		if flows[a].From != flows[b].From {
			return flows[a].From < flows[b].From
		}
		return flows[a].To < flows[b].To
	})
	return flows
}

// recommendedPages converts a recommendation into pages-per-tier,
// accounting for the final region possibly being partial.
func recommendedPages(m *mem.Manager, r model.Recommendation) []int64 {
	out := make([]int64, len(m.Tiers()))
	for i, d := range r.Dest {
		start, end := m.RegionSpan(mem.RegionID(i))
		out[d] += int64(end - start)
	}
	return out
}
