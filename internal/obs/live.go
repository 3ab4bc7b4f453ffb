package obs

import (
	"sort"
	"sync"
)

// Live aggregates events into the current values behind the introspection
// endpoints (/metrics, /debug/vars). Unlike the per-run sinks it is safe
// for concurrent use and is meant to be shared: the experiment engine
// attaches one Live to every run in a set, so counters accumulate across
// runs while gauges reflect the most recently completed window.
type Live struct {
	mu sync.Mutex

	// Counters, accumulated across every recorded window.
	windows, moves, rejected, skipped, tierFullMoves int64
	compactedPages                                   int64
	compactObjectsMoved, compactSkippedTiers         int64
	droppedPressure, droppedCapacity, droppedBudget  int64
	appNs, daemonNs, solverNs                        float64

	// Warm-start solver counters.
	warmHits, classesReused, classesRebuilt int64
	solverFallbacks                         int64

	// Pressure and detector counters (deterministic channel).
	faultStallNs, interferenceNs float64
	tierStallNs                  []float64
	pingPongMoves, migratedBytes int64

	// Per-tier latency histogram accumulation, indexed by serving tier.
	latency []tierLatency

	// Health surface: the /healthz evaluator's current state (true = ok)
	// and its ok/degraded transition counters. Healthy until an evaluator
	// reports otherwise.
	healthDegraded    bool
	healthTransitions map[string]int64

	// Runtime counters (wall clock; only Live sees these).
	phaseNs             [NumPhases]float64
	prepareNs, commitNs float64
	blocked, stallNs    int64

	// Daemon surface: the resident controller's tick counter, attached-
	// workload gauge and per-command outcome counters. Zero outside
	// daemon mode (batch runs never call the AddDaemon*/SetDaemon*
	// methods).
	daemonTicks    int64
	daemonAttached int64
	daemonCommands map[string]*commandOutcomes

	// Sweep surface: the experiment engine's per-figure memo of prepared
	// stores — lookups and hits summed over the figures finished so far,
	// and the bytes the last of them held when it finished. Zero outside a
	// sweep.
	memoLookups, memoHits, memoBytes int64

	// Gauges: the last window snapshot recorded (any run).
	last    WindowSnapshot
	hasLast bool

	// flows accumulates the src→dst migration matrix across windows.
	flows map[[2]int]*TierFlow
}

// commandOutcomes counts one daemon command op's ok/error completions.
type commandOutcomes struct {
	OK, Err int64
}

// NumLatencyBuckets is the dense width of the access-latency histograms
// Live accumulates: one slot per log₂ bucket index a LatencySummary may
// carry. It must equal stats.NumLogBuckets (obs imports nothing from the
// module, so the constant is mirrored here and pinned by a sim test).
const NumLatencyBuckets = 42

// tierLatency is one serving tier's accumulated latency histogram.
type tierLatency struct {
	buckets [NumLatencyBuckets]int64
	count   int64
	sumNs   float64
}

// NewLive returns an empty aggregator.
func NewLive() *Live {
	return &Live{
		flows:             make(map[[2]int]*TierFlow),
		daemonCommands:    make(map[string]*commandOutcomes),
		healthTransitions: make(map[string]int64),
	}
}

// setHealth records the /healthz evaluator's state, counting a
// transition (by target state) whenever it changes. The first degraded
// report after startup counts as an ok→degraded transition.
func (l *Live) setHealth(degraded bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if degraded == l.healthDegraded {
		return
	}
	l.healthDegraded = degraded
	if degraded {
		l.healthTransitions["degraded"]++
	} else {
		l.healthTransitions["ok"]++
	}
}

// AddDaemonTick counts one completed daemon tick (one control-loop pass
// over every attached workload).
func (l *Live) AddDaemonTick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.daemonTicks++
}

// SetDaemonAttached sets the attached-workloads gauge.
func (l *Live) SetDaemonAttached(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.daemonAttached = int64(n)
}

// AddStoreMemo records one finished figure's memo of prepared stores: its
// lookups and hits are added to the running totals, bytes (what it held at
// the end) replaces the gauge.
func (l *Live) AddStoreMemo(lookups, hits, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.memoLookups += lookups
	l.memoHits += hits
	l.memoBytes = bytes
}

// AddDaemonCommand counts one completed daemon command of the given op,
// by outcome.
func (l *Live) AddDaemonCommand(op string, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.daemonCommands[op]
	if c == nil {
		c = &commandOutcomes{}
		l.daemonCommands[op] = c
	}
	if ok {
		c.OK++
	} else {
		c.Err++
	}
}

// RecordWindow implements Recorder.
func (l *Live) RecordWindow(w WindowSnapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.windows++
	l.moves += int64(w.Moves)
	l.rejected += int64(w.Rejected)
	l.skipped += int64(w.Skipped)
	l.tierFullMoves += int64(w.TierFullMoves)
	l.compactedPages += int64(w.CompactedPages)
	l.compactObjectsMoved += int64(w.CompactObjectsMoved)
	l.compactSkippedTiers += int64(w.CompactSkippedTiers)
	l.droppedPressure += int64(w.DroppedPressure)
	l.droppedCapacity += int64(w.DroppedCapacity)
	l.droppedBudget += int64(w.DroppedBudget)
	l.appNs += w.AppNs
	l.daemonNs += w.DaemonNs
	l.solverNs += w.SolverNs
	if w.WarmHit {
		l.warmHits++
	}
	l.classesReused += int64(w.ClassesReused)
	l.classesRebuilt += int64(w.ClassesRebuilt)
	l.solverFallbacks += int64(w.SolverFallbacks)
	l.faultStallNs += w.FaultStallNs
	l.interferenceNs += w.InterferenceNs
	l.pingPongMoves += int64(w.PingPongMoves)
	l.migratedBytes += w.MigratedBytes
	for t, ns := range w.TierStallNs {
		for len(l.tierStallNs) <= t {
			l.tierStallNs = append(l.tierStallNs, 0)
		}
		l.tierStallNs[t] += ns
	}
	for t, ls := range w.TierLatency {
		if ls.Count == 0 {
			continue
		}
		for len(l.latency) <= t {
			l.latency = append(l.latency, tierLatency{})
		}
		acc := &l.latency[t]
		acc.count += ls.Count
		acc.sumNs += ls.SumNs
		for _, b := range ls.Buckets {
			if b.B >= 0 && b.B < NumLatencyBuckets {
				acc.buckets[b.B] += b.N
			}
		}
	}
	for _, f := range w.Migrations {
		k := [2]int{f.From, f.To}
		c, ok := l.flows[k]
		if !ok {
			c = &TierFlow{From: f.From, To: f.To}
			l.flows[k] = c
		}
		c.Pages += f.Pages
		c.Rejected += f.Rejected
	}
	l.last = w
	l.hasLast = true
}

// RecordMove implements Recorder; moves are already aggregated into the
// window snapshot's migration matrix, so Live ignores the event stream.
func (l *Live) RecordMove(MoveEvent) {}

// RecordRuntime implements Recorder.
func (l *Live) RecordRuntime(rt WindowRuntime) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for p, ns := range rt.PhaseWallNs {
		l.phaseNs[p] += ns
	}
	l.prepareNs += rt.PrepareWallNs
	l.commitNs += rt.CommitWallNs
	l.blocked += int64(rt.Sched.BlockedAwaits)
	l.stallNs += rt.Sched.StallNs
}

// liveSnapshot is a consistent copy of the aggregator's state, taken
// under the lock, from which the exposition formats render.
type liveSnapshot struct {
	windows, moves, rejected, skipped, tierFullMoves int64
	compactedPages                                   int64
	compactObjectsMoved, compactSkippedTiers         int64
	droppedPressure, droppedCapacity, droppedBudget  int64
	appNs, daemonNs, solverNs                        float64
	warmHits, classesReused, classesRebuilt          int64
	solverFallbacks                                  int64
	faultStallNs, interferenceNs                     float64
	tierStallNs                                      []float64
	pingPongMoves, migratedBytes                     int64
	latency                                          []tierLatency
	healthDegraded                                   bool
	healthTransitions                                map[string]int64
	phaseNs                                          [NumPhases]float64
	prepareNs, commitNs                              float64
	blocked, stallNs                                 int64
	daemonTicks, daemonAttached                      int64
	memoLookups, memoHits, memoBytes                 int64
	daemonCommands                                   []commandCount
	last                                             WindowSnapshot
	hasLast                                          bool
	flows                                            []TierFlow
}

// commandCount is one daemon command op's outcome counters, in the
// op-sorted order the exposition formats render.
type commandCount struct {
	Op      string
	OK, Err int64
}

func (l *Live) snapshot() liveSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := liveSnapshot{
		windows: l.windows, moves: l.moves, rejected: l.rejected,
		skipped: l.skipped, tierFullMoves: l.tierFullMoves,
		compactedPages:      l.compactedPages,
		compactObjectsMoved: l.compactObjectsMoved,
		compactSkippedTiers: l.compactSkippedTiers,
		droppedPressure:     l.droppedPressure, droppedCapacity: l.droppedCapacity,
		droppedBudget: l.droppedBudget,
		appNs:         l.appNs, daemonNs: l.daemonNs, solverNs: l.solverNs,
		warmHits: l.warmHits, classesReused: l.classesReused,
		classesRebuilt: l.classesRebuilt, solverFallbacks: l.solverFallbacks,
		faultStallNs: l.faultStallNs, interferenceNs: l.interferenceNs,
		tierStallNs:   append([]float64(nil), l.tierStallNs...),
		pingPongMoves: l.pingPongMoves, migratedBytes: l.migratedBytes,
		latency:        append([]tierLatency(nil), l.latency...),
		healthDegraded: l.healthDegraded,
		healthTransitions: map[string]int64{
			"ok":       l.healthTransitions["ok"],
			"degraded": l.healthTransitions["degraded"],
		},
		phaseNs:   l.phaseNs,
		prepareNs: l.prepareNs, commitNs: l.commitNs,
		blocked: l.blocked, stallNs: l.stallNs,
		daemonTicks: l.daemonTicks, daemonAttached: l.daemonAttached,
		memoLookups: l.memoLookups, memoHits: l.memoHits, memoBytes: l.memoBytes,
		last: l.last, hasLast: l.hasLast,
	}
	for op, c := range l.daemonCommands {
		s.daemonCommands = append(s.daemonCommands, commandCount{Op: op, OK: c.OK, Err: c.Err})
	}
	sort.Slice(s.daemonCommands, func(a, b int) bool {
		return s.daemonCommands[a].Op < s.daemonCommands[b].Op
	})
	for _, f := range l.flows {
		s.flows = append(s.flows, *f)
	}
	sort.Slice(s.flows, func(a, b int) bool {
		if s.flows[a].From != s.flows[b].From {
			return s.flows[a].From < s.flows[b].From
		}
		return s.flows[a].To < s.flows[b].To
	})
	return s
}

// Vars returns the aggregator's state as a plain map for expvar
// exposition under the "tierscape" variable.
func (l *Live) Vars() any {
	s := l.snapshot()
	phases := make(map[string]float64, NumPhases)
	for p := 0; p < NumPhases; p++ {
		phases[Phase(p).String()] = s.phaseNs[p]
	}
	v := map[string]any{
		"windows":               s.windows,
		"moved_pages":           s.moves,
		"rejected_pages":        s.rejected,
		"skipped_pages":         s.skipped,
		"tier_full_moves":       s.tierFullMoves,
		"compacted_pages":       s.compactedPages,
		"compact_objects_moved": s.compactObjectsMoved,
		"compact_skipped_tiers": s.compactSkippedTiers,
		"dropped_pressure":      s.droppedPressure,
		"dropped_capacity":      s.droppedCapacity,
		"dropped_budget":        s.droppedBudget,
		"app_ns":                s.appNs,
		"daemon_ns":             s.daemonNs,
		"solver_ns":             s.solverNs,
		"warm_hits":             s.warmHits,
		"classes_reused":        s.classesReused,
		"classes_rebuilt":       s.classesRebuilt,
		"solver_fallbacks":      s.solverFallbacks,
		"fault_stall_ns":        s.faultStallNs,
		"interference_ns":       s.interferenceNs,
		"tier_stall_ns":         s.tierStallNs,
		"pingpong_moves":        s.pingPongMoves,
		"migrated_bytes":        s.migratedBytes,
		"health_degraded":       s.healthDegraded,
		"health_transitions":    s.healthTransitions,
		"phase_wall_ns":         phases,
		"prepare_wall_ns":       s.prepareNs,
		"commit_wall_ns":        s.commitNs,
		"sched_blocked":         s.blocked,
		"sched_stall_ns":        s.stallNs,
		"migrations":            s.flows,
		"store_memo_lookups":    s.memoLookups,
		"store_memo_hits":       s.memoHits,
		"store_memo_bytes":      s.memoBytes,
	}
	v["daemon_ticks"] = s.daemonTicks
	v["daemon_attached_workloads"] = s.daemonAttached
	if len(s.daemonCommands) > 0 {
		cmds := make(map[string]map[string]int64, len(s.daemonCommands))
		for _, c := range s.daemonCommands {
			cmds[c.Op] = map[string]int64{"ok": c.OK, "error": c.Err}
		}
		v["daemon_commands"] = cmds
	}
	if s.hasLast {
		v["last_window"] = s.last
	}
	return v
}
