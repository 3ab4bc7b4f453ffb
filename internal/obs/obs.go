// Package obs is the runtime observability layer of the TierScape
// reproduction: typed per-window snapshots, a per-move event stream, a
// span-style trace of each TS-Daemon control-loop phase, and the sinks
// behind one small Recorder interface. A run has two output channels: the
// JSONL stream (Stream) is the deterministic record, and the Live
// aggregator behind /metrics is the live one. Other views — the windows CSV
// and the Chrome trace — are derived offline from the stream (ReadStream).
//
// Two channels with different guarantees flow through a Recorder:
//
//   - Deterministic events — WindowSnapshot and MoveEvent — carry only
//     virtual-clock and placement data. They are byte-reproducible: the
//     same configuration produces the identical event stream at every
//     GOMAXPROCS and push-thread count (the simulator's determinism
//     contract extends to them). These are what Result.Windows retains
//     and what the JSONL stream encodes.
//   - Runtime telemetry — WindowRuntime — carries wall-clock phase
//     durations and the push threads' commit stalls. It is measured from the
//     real clock, varies run to run, and is deliberately excluded from
//     the deterministic stream; it feeds the live /metrics and /healthz
//     introspection endpoints instead.
//
// The package deliberately imports nothing from the rest of the module:
// tiers are plain ints, times are float64 nanoseconds. A nil Recorder is
// the disabled state — producers guard every emission with a single nil
// check and do no other work, so observability costs nothing when off
// (verified by the BenchmarkRecorder* guards).
package obs

// Recorder receives observability events from a simulation run. A nil
// Recorder disables observability; producers must emit nothing and
// allocate nothing in that case. Implementations must tolerate concurrent
// calls when shared across runs (Live does); per-run sinks (Stream, Mem)
// are called from the run's control loop only, never concurrently.
type Recorder interface {
	// RecordWindow receives the deterministic snapshot of one completed
	// profile window. The snapshot's slices are owned by the receiver:
	// producers build fresh slices per window.
	RecordWindow(WindowSnapshot)
	// RecordMove receives one applied migration move. Moves of a window
	// arrive after its apply phase completes, in plan order — each is read
	// off the plan and the move-indexed apply results, so the order (and
	// content) is identical at every push-thread count.
	RecordMove(MoveEvent)
	// RecordRuntime receives the wall-clock telemetry of one window:
	// phase durations and the push threads' commit stalls. Values are
	// nondeterministic by nature and never enter the deterministic
	// stream.
	RecordRuntime(WindowRuntime)
}

// WindowSnapshot is the deterministic record of one profile window. It is
// retained on sim.Result.Windows and encoded verbatim by the JSONL
// stream; every field is a pure function of the run's configuration
// (virtual clock, placement state), never of wall time or scheduling, so
// snapshots are byte-identical across push-thread counts and repeated runs.
//
// Slice fields are indexed by TierID unless noted. Byte-addressable tiers
// hold zeros in the compression-specific columns.
type WindowSnapshot struct {
	// Window is the 1-based window index.
	Window int
	// AppNs is application virtual time spent in this window.
	AppNs float64
	// DaemonNs is daemon work in this window: solver + migration +
	// compaction + profiling tax + prefetch work.
	DaemonNs float64
	// SolverNs is the modeling (MCKP solve) part of DaemonNs.
	SolverNs float64
	// MigrateNs is the migration-copy part of DaemonNs (decompressions,
	// compressions and media traffic of this window's applied moves),
	// excluding pool compaction.
	MigrateNs float64
	// CompactNs is the post-migration pool-compaction part of DaemonNs.
	CompactNs float64
	// ProfileNs is the telemetry tax accrued during this window.
	ProfileNs float64
	// PrefetchNs is daemon work spent on §3.2 bulk prefetch promotions.
	PrefetchNs float64
	// TCO is the memory TCO at window end (dollar units).
	TCO float64
	// TierPages is residency per tier at window end (logical pages).
	TierPages []int64
	// TierBytes is each tier's physical footprint in bytes at window end:
	// resident pages × 4 KB for byte-addressable tiers, pool pages × 4 KB
	// for compressed tiers.
	TierBytes []int64
	// TierRatio is each compressed tier's observed compression ratio
	// (compressed payload bytes / logical bytes), 0 for byte-addressable
	// or empty tiers.
	TierRatio []float64
	// TierFrag is each compressed tier's zpool internal fragmentation
	// (1 − payload/footprint), 0 for byte-addressable or empty tiers.
	TierFrag []float64
	// RecommendedPages is the model's recommended pages per tier
	// (region-count × RegionPages, by destination); nil for baseline runs.
	RecommendedPages []int64 `json:",omitempty"`
	// Migrations aggregates this window's applied moves by source and
	// destination tier, sorted by (From, To); every planned move
	// contributes its cell, even when all of its pages were rejected or
	// skipped.
	Migrations []TierFlow `json:",omitempty"`
	// Faults is cumulative compressed-tier faults so far.
	Faults int64
	// Moves and Rejected count this window's migrated and
	// definitely-placed-elsewhere pages; Skipped counts pages already
	// resident in their destination.
	Moves, Rejected, Skipped int
	// TierFullMoves counts this window's region moves whose commit
	// reported a full destination (mem.ErrTierFull) — the fallback-path
	// pressure signal.
	TierFullMoves int
	// CompactedPages is how many pool pages compaction reclaimed this
	// window.
	CompactedPages int
	// CompactObjectsMoved is how many live compressed objects compaction
	// relocated to reclaim those pages — the work CompactNs is charged
	// from.
	CompactObjectsMoved int
	// CompactSkippedTiers counts compressed tiers the budgeted compactor
	// skipped this window because their pools saw no churn since their
	// last completed pass.
	CompactSkippedTiers int
	// DroppedPressure/DroppedCapacity/DroppedBudget echo the migration
	// filter's per-window drop counters (§6.7).
	DroppedPressure, DroppedCapacity, DroppedBudget int
	// WarmHit is always false: the analytical model solves every window
	// afresh. A stream written before that carries it, and decodes.
	//
	// Deprecated: nothing sets it; the benchmark change of ROADMAP.md
	// item 3 deletes it.
	WarmHit bool `json:",omitempty"`
	// SolverFallbacks counts solves whose budget not even the lightest
	// assignment fits; the placement is then the min-weight one.
	SolverFallbacks int `json:",omitempty"`
	// SolverLPGap is the solve's proven distance from the ILP optimum,
	// (cost − LP bound)/cost; zero (omitted) for threshold models, a
	// zero-cost solve and an infeasible window.
	SolverLPGap float64 `json:",omitempty"`
	// Latency summarizes every modeled access latency of this window
	// (all tiers merged). Quantiles are quantized to the fixed log₂
	// bucket boundaries (stats.LogHist), so they are deterministic at
	// every push-thread count; the aggregate carries no bucket list — the
	// per-tier summaries in TierLatency do.
	Latency LatencySummary
	// TierLatency holds one latency summary per serving tier (indexed by
	// TierID, the tier that served the access — faults are attributed to
	// the compressed tier that faulted, not to DRAM after promotion).
	TierLatency []LatencySummary `json:",omitempty"`
	// FaultStallNs is application virtual time this window spent stalled
	// on compressed-tier faults (the full modeled fault latency).
	FaultStallNs float64 `json:",omitempty"`
	// InterferenceNs is application virtual time this window lost to
	// daemon interference (the configured fraction of solver, profiling,
	// migration, compaction and prefetch work charged to the app clock).
	InterferenceNs float64 `json:",omitempty"`
	// Pressure is the PSI-style some-stall fraction of this window:
	// (FaultStallNs + InterferenceNs) / AppNs, in [0,1).
	Pressure float64 `json:",omitempty"`
	// TierStallNs is fault-stall virtual time by serving tier (indexed by
	// TierID); omitted when the window had no fault stalls.
	TierStallNs []float64 `json:",omitempty"`
	// PingPongMoves counts this window's applied region moves that
	// reversed the region's previous move direction (promote after
	// demote or vice versa) — the Jenga-style thrash signal.
	PingPongMoves int `json:",omitempty"`
	// ThrashRegions is how many regions' decayed ping-pong scores
	// currently exceed the thrash threshold (score halves each window, a
	// direction flip adds one; threshold 1.5 ≈ flips in two recent
	// windows). ThrashScore is the sum of all live scores — exact at
	// every push-thread count because scores are dyadic rationals.
	ThrashRegions int     `json:",omitempty"`
	ThrashScore   float64 `json:",omitempty"`
	// MigratedBytes is the migration traffic this window pushed over the
	// media: (moved + rejected pages) × page size. StormBytesPerSec is
	// that traffic over the window's application virtual time — the
	// TierBPF-style migration-storm gauge.
	MigratedBytes    int64   `json:",omitempty"`
	StormBytesPerSec float64 `json:",omitempty"`
}

// LatencySummary is a deterministic digest of one window's modeled access
// latencies: count, sum and log₂-bucket-quantized percentiles, plus the
// sparse bucket list when attached per tier. All values derive from
// fixed-boundary histograms (stats.LogHist), so they are identical at
// every push-thread count.
type LatencySummary struct {
	// Count is the number of accesses observed; SumNs their total
	// modeled latency.
	Count int64   `json:",omitempty"`
	SumNs float64 `json:",omitempty"`
	// P50Ns..P999Ns are nearest-rank percentiles quantized up to the
	// holding bucket's upper bound (a conservative tail estimate).
	P50Ns  float64 `json:",omitempty"`
	P95Ns  float64 `json:",omitempty"`
	P99Ns  float64 `json:",omitempty"`
	P999Ns float64 `json:",omitempty"`
	// Buckets is the sparse histogram: non-empty buckets in ascending
	// index order; bucket B counts accesses with latency in
	// [2^(B−1), 2^B) ns.
	Buckets []HistBucket `json:",omitempty"`
}

// HistBucket is one non-empty bucket of a sparse log₂ histogram.
type HistBucket struct {
	// B is the bucket index; the bucket's upper latency bound is 2^B ns.
	B int
	// N is the bucket's observation count.
	N int64
}

// TierFlow is one src→dst cell of a window's migration matrix.
type TierFlow struct {
	// From and To are TierIDs.
	From, To int
	// Pages is how many pages completed the From→To move this window.
	Pages int64
	// Rejected is how many pages of these moves were placed at a
	// fallback tier instead (incompressible, or destination full).
	Rejected int64
}

// SavingsPctVs returns the snapshot's TCO savings versus the given
// all-DRAM maximum, in percent — the per-window curve Figures 8–10 plot.
func (w *WindowSnapshot) SavingsPctVs(tcoMax float64) float64 {
	if tcoMax == 0 {
		return 0
	}
	return (tcoMax - w.TCO) / tcoMax * 100
}

// MoveEvent is one applied region migration, emitted after the window's
// apply phase in ascending job order. Deterministic: identical at every
// push-thread count.
type MoveEvent struct {
	// Window is the 1-based window the move was applied in.
	Window int
	// Job is the move's index in the window's plan.
	Job int
	// Region is the migrated region.
	Region int64
	// From is the region's dominant tier when the plan was drawn; To is
	// the plan's destination tier.
	From, To int
	// Moved/Rejected/Skipped are the per-page outcomes of the region
	// sweep (see mem.MigrationResult).
	Moved, Rejected, Skipped int
	// Full reports that the commit observed a full destination
	// (mem.ErrTierFull) at some point during the sweep.
	Full bool
	// LatencyNs is the modeled migration work of this move.
	LatencyNs float64
}

// Phase identifies one stage of the TS-Daemon control loop inside a
// window, in execution order.
type Phase int

// Control-loop phases, in execution order.
const (
	PhaseProfile Phase = iota // telemetry window close (profile build)
	PhaseSolve                // model recommendation (MCKP solve)
	PhasePlan                 // migration filter
	PhaseApply                // push-thread migration apply
	PhaseCompact              // pool compaction
	numPhases
)

// NumPhases is the number of control-loop phases.
const NumPhases = int(numPhases)

// String returns the phase's label, as used in metric names.
func (p Phase) String() string {
	switch p {
	case PhaseProfile:
		return "profile"
	case PhaseSolve:
		return "solve"
	case PhasePlan:
		return "plan"
	case PhaseApply:
		return "apply"
	case PhaseCompact:
		return "compact"
	}
	return "unknown"
}

// WindowRuntime is the wall-clock telemetry of one window: the span-style
// trace of the control loop plus the push threads' waits for the commit
// turn. Everything here is measured from the real clock (or depends on
// goroutine interleaving) and is therefore excluded from the deterministic
// event stream; it flows to the live metrics endpoints only.
type WindowRuntime struct {
	// Window is the 1-based window index.
	Window int
	// PhaseWallNs holds each control-loop phase's wall duration,
	// indexed by Phase.
	PhaseWallNs [NumPhases]float64
	// PrepareWallNs and CommitWallNs split the apply phase into its
	// concurrent prepare half and ordered commit half, summed across
	// workers (so they can exceed PhaseWallNs[PhaseApply] when more than
	// one push thread runs).
	PrepareWallNs, CommitWallNs float64
	// Sched counts the window's spans and its push threads' waits; no
	// wait when one push thread applied the plan.
	Sched SchedulerStats
}

// SchedulerStats count, for one window's pooled apply, its spans and how
// its push threads waited on the commit turn.
type SchedulerStats struct {
	// Jobs is the number of spans (mem.SpanPages pages of a move) applied.
	Jobs int
	// BlockedAwaits counts waits of a push thread whose next span lay past
	// the look-ahead, until the commit turn moved.
	BlockedAwaits int
	// StallNs is the total wall time push threads spent in those waits.
	StallNs int64
}

// Tee fans every event out to each of recs, in order. Nil entries are
// skipped; with zero non-nil recorders Tee returns nil, the disabled
// state, so producers' nil checks keep working.
func Tee(recs ...Recorder) Recorder {
	var nonNil []Recorder
	for _, r := range recs {
		if r != nil {
			nonNil = append(nonNil, r)
		}
	}
	switch len(nonNil) {
	case 0:
		return nil
	case 1:
		return nonNil[0]
	}
	return teeRecorder(nonNil)
}

type teeRecorder []Recorder

func (t teeRecorder) RecordWindow(w WindowSnapshot) {
	for _, r := range t {
		r.RecordWindow(w)
	}
}

func (t teeRecorder) RecordMove(m MoveEvent) {
	for _, r := range t {
		r.RecordMove(m)
	}
}

func (t teeRecorder) RecordRuntime(rt WindowRuntime) {
	for _, r := range t {
		r.RecordRuntime(rt)
	}
}

// Mem is a Recorder that retains every event in memory, in arrival order —
// the capture sink behind determinism tests and cmd/tierscape's -trace.
type Mem struct {
	Windows  []WindowSnapshot
	Moves    []MoveEvent
	Runtimes []WindowRuntime
}

// RecordWindow implements Recorder.
func (m *Mem) RecordWindow(w WindowSnapshot) { m.Windows = append(m.Windows, w) }

// RecordMove implements Recorder.
func (m *Mem) RecordMove(ev MoveEvent) { m.Moves = append(m.Moves, ev) }

// RecordRuntime implements Recorder.
func (m *Mem) RecordRuntime(rt WindowRuntime) { m.Runtimes = append(m.Runtimes, rt) }
