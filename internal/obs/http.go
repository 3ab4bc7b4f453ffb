package obs

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// WritePrometheus renders the aggregator's state in the Prometheus text
// exposition format (hand-rolled; this module takes no dependencies).
// Series are emitted in a fixed order — metrics alphabetic within their
// group, labels in tier/flow index order — so scrapes diff cleanly.
func (l *Live) WritePrometheus(w io.Writer) error {
	s := l.snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	counter := func(name, help string, v any) {
		p("# HELP tierscape_%s %s\n# TYPE tierscape_%s counter\ntierscape_%s %v\n",
			name, help, name, name, v)
	}
	counter("windows_total", "Profile windows completed.", s.windows)
	counter("moved_pages_total", "Pages migrated to their planned destination.", s.moves)
	counter("rejected_pages_total", "Pages placed at a fallback tier instead of their destination.", s.rejected)
	counter("skipped_pages_total", "Planned pages already resident in their destination.", s.skipped)
	counter("tier_full_moves_total", "Region moves whose commit observed a full destination (ErrTierFull).", s.tierFullMoves)
	counter("compacted_pages_total", "Pool pages reclaimed by post-migration compaction.", s.compactedPages)
	counter("compact_objects_moved_total", "Compressed objects relocated by post-migration compaction.", s.compactObjectsMoved)
	counter("compact_skipped_tiers_total", "Quiet compressed tiers skipped by the budgeted compactor.", s.compactSkippedTiers)
	counter("filter_dropped_total{reason=\"pressure\"}", "Moves dropped by the migration filter.", s.droppedPressure)
	counter("filter_dropped_total{reason=\"capacity\"}", "Moves dropped by the migration filter.", s.droppedCapacity)
	counter("filter_dropped_total{reason=\"budget\"}", "Moves dropped by the migration filter.", s.droppedBudget)
	counter("app_seconds_total", "Application virtual time (modeled).", s.appNs/1e9)
	counter("daemon_seconds_total", "TS-Daemon virtual work (modeled).", s.daemonNs/1e9)
	counter("solver_seconds_total", "Modeled MCKP solve time.", s.solverNs/1e9)
	counter("solver_warm_hits_total", "Windows the warm-start solver repaired incrementally.", s.warmHits)
	counter("solver_classes_reused_total", "MCKP classes reused from the warm-start cache.", s.classesReused)
	counter("solver_classes_rebuilt_total", "MCKP classes rebuilt after drifting beyond epsilon.", s.classesRebuilt)
	counter("solver_fallbacks_total", "Infeasible primary solutions replaced by the DP/min-weight fallback.", s.solverFallbacks)
	counter("pingpong_moves_total", "Applied region moves that reversed the region's previous direction (thrash signal).", s.pingPongMoves)
	counter("migrated_bytes_total", "Migration traffic pushed over the media: (moved + rejected pages) x page size.", s.migratedBytes)
	counter("pressure_stall_seconds_total{kind=\"fault\"}", "Application virtual time stalled, by cause (PSI-style).", s.faultStallNs/1e9)
	counter("pressure_stall_seconds_total{kind=\"interference\"}", "Application virtual time stalled, by cause (PSI-style).", s.interferenceNs/1e9)
	if len(s.tierStallNs) > 0 {
		p("# HELP tierscape_tier_stall_seconds_total Fault-stall virtual time by serving tier.\n")
		p("# TYPE tierscape_tier_stall_seconds_total counter\n")
		for t, ns := range s.tierStallNs {
			p("tierscape_tier_stall_seconds_total{tier=%q} %v\n", strconv.Itoa(t), ns/1e9)
		}
	}
	writeLatencyHistogram(p, s.latency)

	p("# HELP tierscape_phase_wall_seconds_total Wall time per control-loop phase.\n")
	p("# TYPE tierscape_phase_wall_seconds_total counter\n")
	for ph := 0; ph < NumPhases; ph++ {
		p("tierscape_phase_wall_seconds_total{phase=%q} %v\n", Phase(ph).String(), s.phaseNs[ph]/1e9)
	}
	counter("prepare_wall_seconds_total", "Wall time in migration prepare, summed across push threads.", s.prepareNs/1e9)
	counter("commit_wall_seconds_total", "Wall time in migration commit, summed across push threads.", s.commitNs/1e9)
	counter("sched_blocked_awaits_total", "Moves whose push thread waited for its turn to commit.", s.blocked)
	counter("sched_stall_seconds_total", "Wall time push threads waited for their turn to commit.", float64(s.stallNs)/1e9)

	// Health surface: always emitted (the evaluator defaults to ok) so
	// scrapers can alert on tierscape_health_state without presence
	// checks.
	health := 1
	if s.healthDegraded {
		health = 0
	}
	p("# HELP tierscape_health_state Health evaluator state (1 = ok, 0 = degraded).\n")
	p("# TYPE tierscape_health_state gauge\ntierscape_health_state %d\n", health)
	p("# HELP tierscape_health_transitions_total Health state transitions, by target state.\n")
	p("# TYPE tierscape_health_transitions_total counter\n")
	p("tierscape_health_transitions_total{to=\"ok\"} %d\n", s.healthTransitions["ok"])
	p("tierscape_health_transitions_total{to=\"degraded\"} %d\n", s.healthTransitions["degraded"])

	// Daemon surface: always emitted (zero outside daemon mode) so
	// scrapers and the CI smoke can rely on the series existing.
	counter("daemon_ticks_total", "Resident daemon ticks completed (one control-loop pass over every attached workload).", s.daemonTicks)
	p("# HELP tierscape_daemon_attached_workloads Workloads currently attached to the resident daemon.\n")
	p("# TYPE tierscape_daemon_attached_workloads gauge\ntierscape_daemon_attached_workloads %d\n", s.daemonAttached)
	if len(s.daemonCommands) > 0 {
		p("# HELP tierscape_daemon_commands_total Daemon runtime commands completed, by op and outcome.\n")
		p("# TYPE tierscape_daemon_commands_total counter\n")
		for _, c := range s.daemonCommands {
			p("tierscape_daemon_commands_total{op=%q,outcome=\"ok\"} %d\n", c.Op, c.OK)
			p("tierscape_daemon_commands_total{op=%q,outcome=\"error\"} %d\n", c.Op, c.Err)
		}
	}

	if len(s.flows) > 0 {
		p("# HELP tierscape_migrated_pages_total Pages migrated by source and destination tier.\n")
		p("# TYPE tierscape_migrated_pages_total counter\n")
		for _, f := range s.flows {
			p("tierscape_migrated_pages_total{from=%q,to=%q} %d\n",
				strconv.Itoa(f.From), strconv.Itoa(f.To), f.Pages)
		}
	}
	if s.hasLast {
		gauge := func(name, help string, f func(t int) any) {
			p("# HELP tierscape_%s %s\n# TYPE tierscape_%s gauge\n", name, help, name)
			for t := range s.last.TierPages {
				p("tierscape_%s{tier=%q} %v\n", name, strconv.Itoa(t), f(t))
			}
		}
		gauge("tier_pages", "Resident logical pages per tier at the last window boundary.",
			func(t int) any { return s.last.TierPages[t] })
		gauge("tier_bytes", "Physical footprint in bytes per tier at the last window boundary.",
			func(t int) any { return s.last.TierBytes[t] })
		gauge("tier_compression_ratio", "Compressed payload over logical bytes per tier (0 for byte-addressable).",
			func(t int) any { return s.last.TierRatio[t] })
		gauge("tier_fragmentation", "Zpool internal fragmentation per tier (0 for byte-addressable).",
			func(t int) any { return s.last.TierFrag[t] })
		p("# HELP tierscape_tco Memory TCO at the last window boundary (dollar units).\n")
		p("# TYPE tierscape_tco gauge\ntierscape_tco %v\n", s.last.TCO)
		p("# HELP tierscape_faults_total Cumulative compressed-tier faults of the last recorded run.\n")
		p("# TYPE tierscape_faults_total gauge\ntierscape_faults_total %d\n", s.last.Faults)
		p("# HELP tierscape_pressure PSI-style some-stall fraction of the last window.\n")
		p("# TYPE tierscape_pressure gauge\ntierscape_pressure %v\n", s.last.Pressure)
		p("# HELP tierscape_thrash_regions Regions over the ping-pong thrash threshold at the last window.\n")
		p("# TYPE tierscape_thrash_regions gauge\ntierscape_thrash_regions %d\n", s.last.ThrashRegions)
		p("# HELP tierscape_thrash_score Sum of decayed per-region ping-pong scores at the last window.\n")
		p("# TYPE tierscape_thrash_score gauge\ntierscape_thrash_score %v\n", s.last.ThrashScore)
		p("# HELP tierscape_storm_bytes_per_sec Migration traffic rate of the last window (storm gauge).\n")
		p("# TYPE tierscape_storm_bytes_per_sec gauge\ntierscape_storm_bytes_per_sec %v\n", s.last.StormBytesPerSec)
	}
	return err
}

// writeLatencyHistogram renders the per-tier access-latency histograms as
// classic Prometheus histogram series with the fixed log₂ bucket
// boundaries (le in seconds). Tiers that never served an access are
// skipped; a tier that has is rendered with its full fixed bucket set so
// the series are stable across scrapes.
func writeLatencyHistogram(p func(format string, args ...any), latency []tierLatency) {
	nonEmpty := false
	for t := range latency {
		if latency[t].count > 0 {
			nonEmpty = true
			break
		}
	}
	if !nonEmpty {
		return
	}
	p("# HELP tierscape_access_latency_seconds Modeled per-access latency by serving tier.\n")
	p("# TYPE tierscape_access_latency_seconds histogram\n")
	for t := range latency {
		acc := &latency[t]
		if acc.count == 0 {
			continue
		}
		tier := strconv.Itoa(t)
		var cum int64
		// The last bucket is the overflow; it has no finite bound and is
		// covered by the +Inf series.
		for b := 0; b < NumLatencyBuckets-1; b++ {
			cum += acc.buckets[b]
			le := strconv.FormatFloat(float64(uint64(1)<<uint(b))/1e9, 'g', -1, 64)
			p("tierscape_access_latency_seconds_bucket{tier=%q,le=%q} %d\n", tier, le, cum)
		}
		p("tierscape_access_latency_seconds_bucket{tier=%q,le=\"+Inf\"} %d\n", tier, acc.count)
		p("tierscape_access_latency_seconds_sum{tier=%q} %v\n", tier, acc.sumNs/1e9)
		p("tierscape_access_latency_seconds_count{tier=%q} %d\n", tier, acc.count)
	}
}

// expvar.Publish is global and permanent, so the "tierscape" variable is
// registered once and reads through a swappable pointer — each Live that
// calls PublishExpvar becomes the one the variable reports.
var (
	expvarOnce sync.Once
	expvarLive atomic.Pointer[Live]
)

// PublishExpvar exposes this aggregator as the expvar variable
// "tierscape" (shown by /debug/vars). Later calls from another Live
// repoint the variable to it.
func (l *Live) PublishExpvar() {
	expvarLive.Store(l)
	expvarOnce.Do(func() {
		expvar.Publish("tierscape", expvar.Func(func() any {
			if v := expvarLive.Load(); v != nil {
				return v.Vars()
			}
			return nil
		}))
	})
}

// Handler returns the live-introspection mux over l:
//
//	/metrics        Prometheus text exposition
//	/healthz        threshold health report (200 ok / 503 degraded)
//	/debug/vars     expvar JSON (includes the "tierscape" variable)
//	/debug/pprof/*  the net/http/pprof suite
//
// The health evaluator uses DefaultHealthConfig; servers that want
// custom thresholds (the resident daemon does) mount their own
// NewHealth handler at /healthz on a wrapping mux — the more specific
// pattern wins.
func Handler(l *Live) http.Handler {
	l.PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = l.WritePrometheus(w)
	})
	mux.Handle("/healthz", NewHealth(l, DefaultHealthConfig()))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr (e.g. ":9090", or ":0" to pick a free port), serves
// Handler(l) on it for the life of the process, and returns the bound
// address.
func Serve(addr string, l *Live) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := NewServer(Handler(l))
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}

// NewServer wraps h in an http.Server with the introspection endpoints'
// standard timeouts: a header-read deadline against slowloris clients
// and an idle deadline to shed dead keep-alives. No write timeout — the
// pprof profile and trace endpoints legitimately stream for 30 s or
// more.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
