package obs

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// Live aggregates events into the current values behind the introspection
// endpoints (/metrics, /healthz). Unlike the per-run sinks it is safe
// for concurrent use and is meant to be shared: the experiment engine
// attaches one Live to every run in a set, so counters accumulate across
// runs while gauges reflect the most recently completed window.
type Live struct {
	mu sync.Mutex
	s  liveState
}

// liveState is everything Live has aggregated. snapshot copies it whole,
// under the lock, and the exposition formats render from the copy.
type liveState struct {
	// vals holds the scalar series, indexed like seriesTable: counters
	// summed over every recorded window (the runtime ones from the wall
	// clock, which only Live sees) and the few a Live method writes.
	vals []cell

	// Fault-stall virtual time and the latency histogram, by serving tier.
	tierStallNs []float64
	latency     []tierLatency
	// phaseNs is wall time per control-loop phase.
	phaseNs [NumPhases]float64

	// Health surface: the /healthz evaluator's current state and its
	// transition counters, indexed like healthStates. Healthy until an
	// evaluator reports otherwise.
	healthDegraded bool
	healthTo       [2]int64

	// commands are the daemon's per-op outcome counters, sorted by op;
	// empty outside daemon mode.
	commands []commandCount
	// flows accumulates the src→dst migration matrix across windows,
	// sorted by (From, To).
	flows []TierFlow

	// Gauges: the last window snapshot recorded (any run).
	last    WindowSnapshot
	hasLast bool
}

// commandCount is one daemon command op's ok/error completions.
type commandCount struct {
	Op      string
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
	return &Live{s: liveState{vals: make([]cell, len(seriesTable))}}
}

// setHealth records the /healthz evaluator's state, counting a
// transition (by target state) whenever it changes. The first degraded
// report after startup counts as an ok→degraded transition.
func (l *Live) setHealth(degraded bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if degraded == l.s.healthDegraded {
		return
	}
	l.s.healthDegraded = degraded
	if degraded {
		l.s.healthTo[1]++
	} else {
		l.s.healthTo[0]++
	}
}

// AddDaemonTick counts one completed daemon tick (one control-loop pass
// over every attached workload).
func (l *Live) AddDaemonTick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.vals[daemonTicksSeries.idx].i++
}

// SetDaemonAttached sets the attached-workloads gauge.
func (l *Live) SetDaemonAttached(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.vals[daemonAttachedSeries.idx].i = int64(n)
}

// AddStoreMemo records one finished figure's memo of prepared stores: its
// lookups and hits are added to the running totals, bytes (what it held at
// the end) replaces the gauge.
func (l *Live) AddStoreMemo(lookups, hits, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.vals[memoLookupsSeries.idx].i += lookups
	l.s.vals[memoHitsSeries.idx].i += hits
	l.s.vals[memoBytesSeries.idx].i = bytes
}

// AddDaemonCommand counts one completed daemon command of the given op,
// by outcome.
func (l *Live) AddDaemonCommand(op string, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.s
	i, found := slices.BinarySearchFunc(s.commands, op, func(c commandCount, op string) int {
		return strings.Compare(c.Op, op)
	})
	if !found {
		s.commands = slices.Insert(s.commands, i, commandCount{Op: op})
	}
	if ok {
		s.commands[i].OK++
	} else {
		s.commands[i].Err++
	}
}

// RecordWindow implements Recorder.
func (l *Live) RecordWindow(w WindowSnapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.s
	// The accessors read the copy kept as the last window: a pointer to the
	// parameter, handed to a func value, would move it to the heap.
	s.last, s.hasLast = w, true
	for i, r := range seriesTable {
		switch {
		case r.winInt != nil:
			s.vals[i].i += r.winInt(&s.last)
		case r.winFloat != nil:
			s.vals[i].f += r.winFloat(&s.last)
		}
	}
	for t, ns := range w.TierStallNs {
		for len(s.tierStallNs) <= t {
			s.tierStallNs = append(s.tierStallNs, 0)
		}
		s.tierStallNs[t] += ns
	}
	for t, ls := range w.TierLatency {
		if ls.Count == 0 {
			continue
		}
		for len(s.latency) <= t {
			s.latency = append(s.latency, tierLatency{})
		}
		acc := &s.latency[t]
		acc.count += ls.Count
		acc.sumNs += ls.SumNs
		for _, b := range ls.Buckets {
			if b.B >= 0 && b.B < NumLatencyBuckets {
				acc.buckets[b.B] += b.N
			}
		}
	}
	for _, f := range w.Migrations {
		i, found := slices.BinarySearchFunc(s.flows, f, func(c, f TierFlow) int {
			return cmp.Or(cmp.Compare(c.From, f.From), cmp.Compare(c.To, f.To))
		})
		if !found {
			s.flows = slices.Insert(s.flows, i, TierFlow{From: f.From, To: f.To})
		}
		s.flows[i].Pages += f.Pages
		s.flows[i].Rejected += f.Rejected
	}
}

// RecordMove implements Recorder; moves are already aggregated into the
// window snapshot's migration matrix, so Live ignores the event stream.
func (l *Live) RecordMove(MoveEvent) {}

// RecordRuntime implements Recorder.
func (l *Live) RecordRuntime(rt WindowRuntime) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.s
	for i, r := range seriesTable {
		switch {
		case r.rtInt != nil:
			s.vals[i].i += r.rtInt(rt)
		case r.rtFloat != nil:
			s.vals[i].f += r.rtFloat(rt)
		}
	}
	for p, ns := range rt.PhaseWallNs {
		s.phaseNs[p] += ns
	}
}

// snapshot returns a consistent copy of the aggregator's state: the struct
// as it stands, with the slices Live writes in place cloned. (last's slices
// are the producer's per-window ones, never written again.)
func (l *Live) snapshot() liveState {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.s
	s.vals = slices.Clone(s.vals)
	s.tierStallNs = slices.Clone(s.tierStallNs)
	s.latency = slices.Clone(s.latency)
	s.commands = slices.Clone(s.commands)
	s.flows = slices.Clone(s.flows)
	return s
}

// Vars returns the aggregator's state as a plain map, for readers in the
// same process (the benchmark harness and tests): every scalar of
// seriesTable under its key, as the int64 or float64 it accumulates in, plus the
// labelled families in the shapes below.
func (l *Live) Vars() any {
	s := l.snapshot()
	phases := make(map[string]float64, NumPhases)
	for p, ns := range s.phaseNs {
		phases[Phase(p).String()] = ns
	}
	v := map[string]any{
		"tier_stall_ns":      s.tierStallNs,
		"health_degraded":    s.healthDegraded,
		"health_transitions": map[string]int64{healthStates[0]: s.healthTo[0], healthStates[1]: s.healthTo[1]},
		"phase_wall_ns":      phases,
		"migrations":         s.flows,
	}
	for i, r := range seriesTable {
		switch {
		case r.key == "":
		case r.isFloat():
			v[r.key] = s.vals[i].f
		default:
			v[r.key] = s.vals[i].i
		}
	}
	if len(s.commands) > 0 {
		cmds := make(map[string]map[string]int64, len(s.commands))
		for _, c := range s.commands {
			cmds[c.Op] = map[string]int64{"ok": c.OK, "error": c.Err}
		}
		v["daemon_commands"] = cmds
	}
	if s.hasLast {
		v["last_window"] = s.last
	}
	return v
}
