package obs

import "strconv"

// series is one row of seriesTable: a Prometheus family (or one constant
// label set of it) and, for a scalar, the Vars() key and where its value
// comes from. RecordWindow, RecordRuntime, WritePrometheus and Vars all walk
// the table, so a new scalar series is one row here and nothing else.
type series struct {
	key    string  // Vars() key; "" keeps the row out of Vars()
	family string  // family name after "tierscape_"; "" continues the family of the row above
	labels string  // constant label set, e.g. `reason="pressure"`
	help   string  // HELP text, on the family's first row
	typ    string  // TYPE; "" means counter
	div    float64 // /metrics divides the value by this (1e9: ns → s); 0 = as is

	// A scalar sums at most one of these over the recorded events; the
	// accessor's type is the series' Go type in Vars(). A scalar with none
	// is an int64 that a Live method writes (see the named rows below).
	winInt   func(*WindowSnapshot) int64
	winFloat func(*WindowSnapshot) float64
	rtInt    func(WindowRuntime) int64
	rtFloat  func(WindowRuntime) float64

	// vector marks a family whose label values come from the state (tiers,
	// phases, ops, flows): it appends the family's samples itself, and the
	// family is left out of a scrape in which it appends none.
	vector func(b []byte, r *series, s *liveState) []byte

	idx int // position in seriesTable, the row's cell in liveState.vals
}

// cell holds one scalar's running value: i for an int64 series, f for a
// float64 one.
type cell struct {
	i int64
	f float64
}

func (r *series) isFloat() bool { return r.winFloat != nil || r.rtFloat != nil }

// The rows other code reaches by name: the health evaluator reads the first
// two, Live's Add*/Set* methods write the rest. Each sits in seriesTable at
// the place its family is rendered.
var (
	windowsSeries = &series{key: "windows", family: "windows_total", help: "Profile windows completed.",
		winInt: func(*WindowSnapshot) int64 { return 1 }}
	solverFallbacksSeries = &series{key: "solver_fallbacks", family: "solver_fallbacks_total", help: "Solves whose budget not even the min-weight placement fits; that placement is used.",
		winInt: func(w *WindowSnapshot) int64 { return int64(w.SolverFallbacks) }}
	daemonTicksSeries    = &series{key: "daemon_ticks", family: "daemon_ticks_total", help: "Resident daemon ticks completed (one control-loop pass over every attached workload)."}
	daemonAttachedSeries = &series{key: "daemon_attached_workloads", family: "daemon_attached_workloads", typ: "gauge", help: "Workloads currently attached to the resident daemon."}
	memoLookupsSeries    = &series{key: "store_memo_lookups", family: "store_memo_lookups_total", help: "Lookups in the finished figures' memos of prepared stores."}
	memoHitsSeries       = &series{key: "store_memo_hits", family: "store_memo_hits_total", help: "Lookups the finished figures' memos of prepared stores answered."}
	memoBytesSeries      = &series{key: "store_memo_bytes", family: "store_memo_bytes", typ: "gauge", help: "Bytes the last finished figure's memo of prepared stores held."}
)

// seriesTable is every family /metrics serves, in exposition order, and
// with it every scalar Vars() carries.
var seriesTable = [...]*series{
	windowsSeries,
	{key: "moved_pages", family: "moved_pages_total", help: "Pages migrated to their planned destination.",
		winInt: func(w *WindowSnapshot) int64 { return int64(w.Moves) }},
	{key: "rejected_pages", family: "rejected_pages_total", help: "Pages placed at a fallback tier instead of their destination.",
		winInt: func(w *WindowSnapshot) int64 { return int64(w.Rejected) }},
	{key: "skipped_pages", family: "skipped_pages_total", help: "Planned pages already resident in their destination.",
		winInt: func(w *WindowSnapshot) int64 { return int64(w.Skipped) }},
	{key: "tier_full_moves", family: "tier_full_moves_total", help: "Region moves whose commit observed a full destination (ErrTierFull).",
		winInt: func(w *WindowSnapshot) int64 { return int64(w.TierFullMoves) }},
	{key: "compacted_pages", family: "compacted_pages_total", help: "Pool pages reclaimed by post-migration compaction.",
		winInt: func(w *WindowSnapshot) int64 { return int64(w.CompactedPages) }},
	{key: "compact_objects_moved", family: "compact_objects_moved_total", help: "Compressed objects relocated by post-migration compaction.",
		winInt: func(w *WindowSnapshot) int64 { return int64(w.CompactObjectsMoved) }},
	{key: "compact_skipped_tiers", family: "compact_skipped_tiers_total", help: "Quiet compressed tiers skipped by the budgeted compactor.",
		winInt: func(w *WindowSnapshot) int64 { return int64(w.CompactSkippedTiers) }},
	{key: "dropped_pressure", family: "filter_dropped_total", labels: `reason="pressure"`, help: "Moves dropped by the migration filter.",
		winInt: func(w *WindowSnapshot) int64 { return int64(w.DroppedPressure) }},
	{key: "dropped_capacity", labels: `reason="capacity"`,
		winInt: func(w *WindowSnapshot) int64 { return int64(w.DroppedCapacity) }},
	{key: "dropped_budget", labels: `reason="budget"`,
		winInt: func(w *WindowSnapshot) int64 { return int64(w.DroppedBudget) }},
	{key: "app_ns", family: "app_seconds_total", div: 1e9, help: "Application virtual time (modeled).",
		winFloat: func(w *WindowSnapshot) float64 { return w.AppNs }},
	{key: "daemon_ns", family: "daemon_seconds_total", div: 1e9, help: "TS-Daemon virtual work (modeled).",
		winFloat: func(w *WindowSnapshot) float64 { return w.DaemonNs }},
	{key: "solver_ns", family: "solver_seconds_total", div: 1e9, help: "Modeled MCKP solve time.",
		winFloat: func(w *WindowSnapshot) float64 { return w.SolverNs }},
	solverFallbacksSeries,
	{key: "pingpong_moves", family: "pingpong_moves_total", help: "Applied region moves that reversed the region's previous direction (thrash signal).",
		winInt: func(w *WindowSnapshot) int64 { return int64(w.PingPongMoves) }},
	{key: "migrated_bytes", family: "migrated_bytes_total", help: "Migration traffic pushed over the media: (moved + rejected pages) x page size.",
		winInt: func(w *WindowSnapshot) int64 { return w.MigratedBytes }},
	{key: "fault_stall_ns", family: "pressure_stall_seconds_total", labels: `kind="fault"`, div: 1e9, help: "Application virtual time stalled, by cause (PSI-style).",
		winFloat: func(w *WindowSnapshot) float64 { return w.FaultStallNs }},
	{key: "interference_ns", labels: `kind="interference"`, div: 1e9,
		winFloat: func(w *WindowSnapshot) float64 { return w.InterferenceNs }},
	{family: "tier_stall_seconds_total", div: 1e9, help: "Fault-stall virtual time by serving tier.",
		vector: indexed("tier", strconv.Itoa, func(s *liveState) []float64 { return s.tierStallNs })},
	{family: "access_latency_seconds", typ: "histogram", help: "Modeled per-access latency by serving tier.", vector: appendLatency},
	{family: "phase_wall_seconds_total", div: 1e9, help: "Wall time per control-loop phase.",
		vector: indexed("phase", func(p int) string { return Phase(p).String() }, func(s *liveState) []float64 { return s.phaseNs[:] })},
	{key: "prepare_wall_ns", family: "prepare_wall_seconds_total", div: 1e9, help: "Wall time in migration prepare, summed across push threads.",
		rtFloat: func(rt WindowRuntime) float64 { return rt.PrepareWallNs }},
	{key: "commit_wall_ns", family: "commit_wall_seconds_total", div: 1e9, help: "Wall time in migration commit, summed across push threads.",
		rtFloat: func(rt WindowRuntime) float64 { return rt.CommitWallNs }},
	{key: "sched_blocked", family: "sched_blocked_awaits_total", help: "Waits of a push thread for the commit turn to come within its look-ahead.",
		rtInt: func(rt WindowRuntime) int64 { return int64(rt.Sched.BlockedAwaits) }},
	{key: "sched_stall_ns", family: "sched_stall_seconds_total", div: 1e9, help: "Wall time push threads waited for the commit turn to come within their look-ahead.",
		rtInt: func(rt WindowRuntime) int64 { return rt.Sched.StallNs }},

	// Health surface: always emitted (the evaluator defaults to ok) so
	// scrapers can alert on tierscape_health_state without presence
	// checks.
	{family: "health_state", typ: "gauge", help: "Health evaluator state (1 = ok, 0 = degraded).", vector: appendHealthState},
	{family: "health_transitions_total", help: "Health state transitions, by target state.",
		vector: indexed("to", func(i int) string { return healthStates[i] }, func(s *liveState) []int64 { return s.healthTo[:] })},

	// Daemon and sweep surfaces: always emitted (zero outside daemon mode
	// or a sweep) so scrapers and the CI smoke can rely on the series
	// existing.
	daemonTicksSeries,
	daemonAttachedSeries,
	{family: "daemon_commands_total", help: "Daemon runtime commands completed, by op and outcome.", vector: appendCommands},
	memoLookupsSeries,
	memoHitsSeries,
	memoBytesSeries,

	{family: "migrated_pages_total", help: "Pages migrated by source and destination tier.", vector: appendFlows},

	// Gauges of the last window snapshot recorded (any run); absent until
	// there is one.
	{family: "tier_pages", typ: "gauge", help: "Resident logical pages per tier at the last window boundary.",
		vector: indexed("tier", strconv.Itoa, func(s *liveState) []int64 { return s.last.TierPages })},
	{family: "tier_bytes", typ: "gauge", help: "Physical footprint in bytes per tier at the last window boundary.",
		vector: indexed("tier", strconv.Itoa, func(s *liveState) []int64 { return s.last.TierBytes })},
	{family: "tier_compression_ratio", typ: "gauge", help: "Compressed payload over logical bytes per tier (0 for byte-addressable).",
		vector: indexed("tier", strconv.Itoa, func(s *liveState) []float64 { return s.last.TierRatio })},
	{family: "tier_fragmentation", typ: "gauge", help: "Zpool internal fragmentation per tier (0 for byte-addressable).",
		vector: indexed("tier", strconv.Itoa, func(s *liveState) []float64 { return s.last.TierFrag })},
	{family: "tco", typ: "gauge", help: "Memory TCO at the last window boundary (dollar units).",
		vector: lastValue(func(w *WindowSnapshot) float64 { return w.TCO })},
	{family: "faults_total", typ: "gauge", help: "Cumulative compressed-tier faults of the last recorded run.",
		vector: lastValue(func(w *WindowSnapshot) int64 { return w.Faults })},
	{family: "pressure", typ: "gauge", help: "PSI-style some-stall fraction of the last window.",
		vector: lastValue(func(w *WindowSnapshot) float64 { return w.Pressure })},
	{family: "thrash_regions", typ: "gauge", help: "Regions over the ping-pong thrash threshold at the last window.",
		vector: lastValue(func(w *WindowSnapshot) int64 { return int64(w.ThrashRegions) })},
	{family: "thrash_score", typ: "gauge", help: "Sum of decayed per-region ping-pong scores at the last window.",
		vector: lastValue(func(w *WindowSnapshot) float64 { return w.ThrashScore })},
	{family: "storm_bytes_per_sec", typ: "gauge", help: "Migration traffic rate of the last window (storm gauge).",
		vector: lastValue(func(w *WindowSnapshot) float64 { return w.StormBytesPerSec })},
	{family: "solver_lp_gap", typ: "gauge", help: "Proven gap of the last window's solve to the LP bound, (cost - bound) / cost.",
		vector: lastValue(func(w *WindowSnapshot) float64 { return w.SolverLPGap })},
}

func init() {
	for i, r := range seriesTable {
		r.idx = i
		if r.family == "" {
			r.family = seriesTable[i-1].family
		}
		if r.typ == "" {
			r.typ = "counter"
		}
	}
}

// Sample writers. Everything is appended to one buffer, label sets are
// built in a scratch array on the stack, so a scrape allocates a handful of
// times, not once per value.

func (r *series) appendName(b []byte, suffix string) []byte {
	return append(append(append(b, "tierscape_"...), r.family...), suffix...)
}

// appendValue appends v as /metrics writes it: an integer in full, a float
// in its shortest form.
func appendValue[T int64 | float64](b []byte, v T) []byte {
	if f, ok := any(v).(float64); ok {
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// appendSample appends one sample line: name+suffix, the label set if there
// is one, the value over the row's divisor if it has one.
func appendSample[T int64 | float64](b []byte, r *series, suffix string, labels []byte, v T) []byte {
	b = r.appendName(b, suffix)
	if len(labels) > 0 {
		b = append(append(append(b, '{'), labels...), '}')
	}
	if b = append(b, ' '); r.div != 0 {
		b = appendValue(b, float64(v)/r.div)
	} else {
		b = appendValue(b, v)
	}
	return append(b, '\n')
}

// label appends name="value" to the label set l.
func label(l []byte, name, value string) []byte {
	if len(l) > 0 {
		l = append(l, ',')
	}
	return strconv.AppendQuote(append(append(l, name...), '='), value)
}

// indexed writes a family with one sample per element of a slice of the
// state, labelled name="value(index)".
func indexed[T int64 | float64](name string, value func(int) string, get func(*liveState) []T) func([]byte, *series, *liveState) []byte {
	return func(b []byte, r *series, s *liveState) []byte {
		var l [32]byte
		for i, v := range get(s) {
			b = appendSample(b, r, "", label(l[:0], name, value(i)), v)
		}
		return b
	}
}

// appendLatency renders the per-tier access-latency histograms as classic
// Prometheus histogram series with the fixed log₂ bucket boundaries (le in
// seconds). Tiers that never served an access are skipped; a tier that has
// is rendered with its full fixed bucket set so the series are stable
// across scrapes.
func appendLatency(b []byte, r *series, s *liveState) []byte {
	var l [64]byte
	for t := range s.latency {
		acc := &s.latency[t]
		if acc.count == 0 {
			continue
		}
		tier := label(l[:0], "tier", strconv.Itoa(t))
		var cum int64
		// The last bucket is the overflow; it has no finite bound and is
		// covered by the +Inf series.
		for i := 0; i < NumLatencyBuckets-1; i++ {
			cum += acc.buckets[i]
			le := appendValue(append(tier, `,le="`...), float64(uint64(1)<<uint(i))/1e9)
			b = appendSample(b, r, "_bucket", append(le, '"'), cum)
		}
		b = appendSample(b, r, "_bucket", label(tier, "le", "+Inf"), acc.count)
		b = appendSample(b, r, "_sum", tier, acc.sumNs/1e9)
		b = appendSample(b, r, "_count", tier, acc.count)
	}
	return b
}

// healthStates are the health evaluator's states, indexed as
// liveState.healthTo is.
var healthStates = [2]string{"ok", "degraded"}

func appendHealthState(b []byte, r *series, s *liveState) []byte {
	var ok int64 = 1
	if s.healthDegraded {
		ok = 0
	}
	return appendSample(b, r, "", nil, ok)
}

func appendCommands(b []byte, r *series, s *liveState) []byte {
	for _, c := range s.commands {
		op := label(nil, "op", c.Op)
		b = appendSample(b, r, "", label(op, "outcome", "ok"), c.OK)
		b = appendSample(b, r, "", label(op, "outcome", "error"), c.Err)
	}
	return b
}

func appendFlows(b []byte, r *series, s *liveState) []byte {
	var l [64]byte
	for _, f := range s.flows {
		from := label(l[:0], "from", strconv.Itoa(f.From))
		b = appendSample(b, r, "", label(from, "to", strconv.Itoa(f.To)), f.Pages)
	}
	return b
}

// lastValue writes one unlabelled gauge read off the last snapshot recorded,
// once there is one.
func lastValue[T int64 | float64](get func(*WindowSnapshot) T) func([]byte, *series, *liveState) []byte {
	return func(b []byte, r *series, s *liveState) []byte {
		if !s.hasLast {
			return b
		}
		return appendSample(b, r, "", nil, get(&s.last))
	}
}
