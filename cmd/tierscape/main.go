// Command tierscape runs the TS-Daemon simulation loop for one workload
// under one placement model and prints per-window placement, TCO and the
// run summary — the CLI equivalent of the paper's
// `make tier_memcached_memtier_{baseline,hemem,ilp,waterfall}` targets.
//
// Examples:
//
//	tierscape -workload memcached-ycsb -model am -alpha 0.1
//	tierscape -workload redis -model waterfall -pct 25 -tiers spectrum
//	tierscape -workload bfs -model baseline
//	tierscape -model am -trace                       # per-window span trace
//	tierscape -model am -events run.jsonl            # deterministic event stream
//	tierscape -model am -metrics-addr :9090 -metrics-hold 1m
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tierscape"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/trace"
	"tierscape/internal/ztier"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// spec declares one run: the workload, the model, the tier lineup and the
// control-loop knobs. The flags bind to its fields, and in daemon mode an
// attach document is decoded over a copy of the flag-filled value — an
// absent key inherits the flag, a key that is present wins even when it is
// zero — so a knob is declared here once. Fields tagged "-" are flag-only.
type spec struct {
	Workload string  `json:"workload"`
	Replay   string  `json:"replay"`
	Model    string  `json:"model"`
	Alpha    float64 `json:"alpha"`
	Pct      float64 `json:"pct"`
	Tiers    string  `json:"tiers"`
	Pages    int64   `json:"pages"`
	Seed     uint64  `json:"seed"`
	Ops      int     `json:"ops"`
	Prefetch int     `json:"prefetch"`
	Windows  int     `json:"-"` // the daemon runs a workload until it is detached
}

func (s *spec) bind(fs *flag.FlagSet) {
	fs.StringVar(&s.Workload, "workload", "memcached-ycsb",
		"workload: memcached-ycsb, memcached-memtier, redis, bfs, pagerank, xsbench, graphsage, masim, ycsb-{a..f}")
	fs.StringVar(&s.Replay, "replay", "", "replay a recorded trace file as the workload")
	fs.StringVar(&s.Model, "model", "am",
		"placement model: baseline, am, waterfall, hemem, gswap, tmo")
	fs.Float64Var(&s.Alpha, "alpha", 0.1, "analytical model knob in [0,1]")
	fs.Float64Var(&s.Pct, "pct", 25, "hotness percentile threshold for threshold models")
	fs.StringVar(&s.Tiers, "tiers", "standard", "tier setup: standard (DRAM+NVMM+CT1+CT2), spectrum (DRAM+C1,C2,C4,C7,C12), or a JSON tier file such as "+tierFileExample)
	fs.Int64Var(&s.Pages, "pages", 16*tierscape.RegionPages, "workload footprint in 4 KB pages")
	fs.Uint64Var(&s.Seed, "seed", 42, "random seed")
	fs.IntVar(&s.Ops, "ops", 20000, "operations per window")
	fs.IntVar(&s.Prefetch, "prefetch", 0, "prefetcher fault threshold per region per window (0 = off)")
	fs.IntVar(&s.Windows, "windows", 8, "profile windows to run")
}

// overlay returns s with the keys of an attach document written over it.
// Keys the spec does not have are ignored, so a document written for
// another version of the daemon still attaches.
func (s spec) overlay(doc json.RawMessage) (spec, error) {
	if len(doc) > 0 {
		if err := json.Unmarshal(doc, &s); err != nil {
			return s, fmt.Errorf("attach spec: %w", err)
		}
	}
	return s, nil
}

// runConfig lowers the spec to the facade's run configuration over wl. The
// caller adds its Recorder.
func (s spec) runConfig(wl tierscape.Workload) (tierscape.RunConfig, error) {
	if err := s.checkKnobs(); err != nil {
		return tierscape.RunConfig{}, err
	}
	tiers, byteTiers, err := resolveTiers(s.Tiers)
	if err != nil {
		return tierscape.RunConfig{}, fmt.Errorf("tier setup %q: %v", s.Tiers, err)
	}
	mdl, err := s.model(byteTiers, tiers)
	if err != nil {
		return tierscape.RunConfig{}, err
	}
	return tierscape.RunConfig{
		Workload:               wl,
		Tiers:                  tiers,
		ByteTiers:              byteTiers,
		Model:                  mdl,
		Windows:                s.Windows,
		OpsPerWindow:           s.Ops,
		SampleRate:             50,
		Seed:                   s.Seed,
		PrefetchFaultThreshold: s.Prefetch,
	}, nil
}

// check refuses a spec no run can use, without building its workload: its
// knobs, its tier lineup, its model and, unless it replays a trace, its
// workload name and footprint. The daemon checks its flag defaults with it
// before it listens: every attach inherits them.
func (s spec) check() error {
	if s.Replay == "" {
		if err := checkWorkload(s.Workload, s.Pages); err != nil {
			return err
		}
	}
	_, err := s.runConfig(nil)
	return err
}

// checkKnobs refuses control-loop knobs no run can use.
func (s spec) checkKnobs() error {
	if err := model.CheckKnobs(s.Alpha, s.Pct); err != nil {
		return err
	}
	if s.Ops <= 0 {
		return fmt.Errorf("ops must be positive, got %d", s.Ops)
	}
	if s.Prefetch < 0 {
		return fmt.Errorf("prefetch must be >= 0, got %d", s.Prefetch)
	}
	return nil
}

// workload builds the spec's workload: a reader over the trace it replays,
// or the named workload. A replay's file is returned for the caller to
// close; otherwise the file is nil, whose Close does nothing.
func (s spec) workload() (tierscape.Workload, *os.File, error) {
	if s.Replay == "" {
		wl, err := buildWorkload(s.Workload, s.Pages, s.Seed)
		return wl, nil, err
	}
	f, err := os.Open(s.Replay)
	if err != nil {
		return nil, nil, err
	}
	r, err := trace.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// run is the command: the run's tables go to stdout, diagnostics to stderr,
// and the result is the exit status — 2 for a command line it cannot act on
// (bad flag, unknown workload or model, unreadable trace or tier file), 1
// for a run or a sink that failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tierscape", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var s spec
	s.bind(fs)
	record := fs.String("record", "", "record the access trace to this file while running")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :9090)")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint up this long after the run finishes")
	events := fs.String("events", "", "write the run's deterministic JSONL event stream to this file")
	health := obs.DefaultHealthConfig()
	fs.Float64Var(&health.MaxPressure, "health-max-pressure", health.MaxPressure, "healthz: degrade when the last window's PSI-style stall fraction exceeds this (0 disables)")
	fs.IntVar(&health.MaxThrashRegions, "health-max-thrash", health.MaxThrashRegions, "healthz: degrade when regions over the ping-pong thrash threshold exceed this (0 disables)")
	fs.Float64Var(&health.MaxStormBytesPerSec, "health-max-storm-bps", health.MaxStormBytesPerSec, "healthz: degrade when the last window's migration traffic rate exceeds this many bytes/sec (0 disables)")
	fs.Float64Var(&health.MaxFallbackRate, "health-max-fallback-rate", health.MaxFallbackRate, "healthz: degrade when cumulative solver fallbacks per window exceed this (0 disables)")
	showTrace := fs.Bool("trace", false, "print the per-window span trace (phase wall times, prepare/commit split, waits for the commit turn)")
	daemonMode := fs.Bool("daemon", false, "run as a resident tiering daemon: workloads attach/detach at runtime via POST /command on -metrics-addr (required); the run flags become attach-spec defaults")
	daemonConfigPath := fs.String("daemon-config", "", "daemon config JSON file ({\"tick_every\":\"1s\",\"max_workloads\":8}); re-read by the reload command")
	tick := fs.Duration("tick", 0, "daemon tick period override: one profile window per attached workload per tick")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *record != "" && s.Replay != "" {
		fmt.Fprintln(stderr, "-record and -replay cannot be combined: a replay is the run it recorded")
		return 2
	}

	if *daemonMode {
		return runDaemonMode(daemonOpts{
			configPath:  *daemonConfigPath,
			tick:        *tick,
			metricsAddr: *metricsAddr,
			health:      health,
			defaults:    s,
		}, stdout, stderr)
	}
	fail := func(status int, format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return status
	}
	if s.Windows <= 0 {
		return fail(2, "windows must be positive, got %d", s.Windows)
	}

	wl, replayFile, err := s.workload()
	if err != nil {
		return fail(2, "%v", err)
	}
	defer replayFile.Close()
	replay, _ := wl.(*trace.Reader)
	var recorder *trace.Recorder
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return fail(1, "record file: %v", err)
		}
		defer f.Close()
		if recorder, err = trace.NewRecorder(f, wl); err != nil {
			return fail(2, "%v", err)
		}
		wl = recorder
	}

	// Observability: each enabled sink becomes one leg of a tee. The
	// deterministic legs (JSONL stream, in-memory capture for -trace) see
	// the same events at any GOMAXPROCS; the live aggregator additionally
	// sees wall-clock runtime spans.
	var recs []tierscape.Recorder
	if *metricsAddr != "" {
		live := tierscape.NewLiveMetrics()
		addr, err := tierscape.ServeMetrics(*metricsAddr, live)
		if err != nil {
			return fail(1, "metrics listener: %v", err)
		}
		fmt.Fprintf(stderr, "metrics: http://%s/metrics (also /healthz, /debug/pprof)\n", addr)
		recs = append(recs, live)
	}
	var stream *tierscape.EventStream
	var eventsFile *os.File
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return fail(1, "events file: %v", err)
		}
		eventsFile = f
		stream = tierscape.NewEventStream(f)
		recs = append(recs, stream)
	}
	var capture *tierscape.MetricsRecorder
	if *showTrace {
		capture = &tierscape.MetricsRecorder{}
		recs = append(recs, capture)
	}
	cfg, err := s.runConfig(wl)
	if err != nil {
		return fail(2, "%v", err)
	}
	cfg.Recorder = tierscape.TeeRecorders(recs...)

	res, err := tierscape.Run(cfg)
	if err != nil {
		return fail(1, "%v", err)
	}
	if replay != nil && replay.Err() != nil {
		return fail(1, "replaying %s: %v", s.Replay, replay.Err())
	}
	if replay != nil && replay.Exhausted() {
		return fail(1, "replaying %s: the trace holds %d ops, the run needs %d (%d windows × %d ops)",
			s.Replay, replay.Ops(), s.Windows*s.Ops, s.Windows, s.Ops)
	}
	if recorder != nil {
		if err := recorder.Close(); err != nil {
			return fail(1, "closing trace: %v", err)
		}
		fmt.Fprintf(stdout, "trace recorded to %s\n", *record)
	}

	fmt.Fprintf(stdout, "workload: %s   model: %s   footprint: %d pages (%d regions)\n",
		res.WorkloadName, res.ModelName, wl.NumPages(),
		(wl.NumPages()+mem.RegionPages-1)/mem.RegionPages)
	fmt.Fprintln(stdout, "window  app_ms  daemon_ms  moves  faults  tco  savings%  tier_pages")
	for _, w := range res.Windows {
		fmt.Fprintf(stdout, "%6d  %6.1f  %9.2f  %5d  %6d  %.4f  %7.2f  %v\n",
			w.Window, w.AppNs/1e6, w.DaemonNs/1e6, w.Moves, w.Faults,
			w.TCO, w.SavingsPctVs(res.TCOMax), w.TierPages)
	}
	fmt.Fprintf(stdout, "\nops: %d   throughput: %.0f ops/s (virtual)\n", res.Ops, res.ThroughputOpsPerSec())
	fmt.Fprintf(stdout, "latency: avg %.1fus  p95 %.1fus  p99.9 %.1fus\n",
		res.OpLat.Mean()/1000, res.OpLat.Percentile(95)/1000, res.OpLat.Percentile(99.9)/1000)
	fmt.Fprintf(stdout, "TCO: max %.4f  avg %.4f  final %.4f   time-averaged savings %.2f%%\n",
		res.TCOMax, res.AvgTCO, res.FinalTCO, res.SavingsPct())

	// The stream latches its first write error; surface it (and any close
	// error) as a nonzero exit instead of leaving a silently truncated
	// file behind.
	if stream != nil {
		if err := stream.Err(); err != nil {
			return fail(1, "event stream: %v", err)
		}
		if err := eventsFile.Close(); err != nil {
			return fail(1, "closing events file: %v", err)
		}
		fmt.Fprintf(stdout, "events written to %s\n", *events)
	}
	if capture != nil {
		printTrace(stdout, capture)
	}
	if *metricsAddr != "" && *metricsHold > 0 {
		fmt.Fprintf(stderr, "holding metrics endpoint for %v\n", *metricsHold)
		time.Sleep(*metricsHold)
	}
	return 0
}

// printTrace renders the span-style per-window trace: wall time of each
// control-loop phase, the apply phase's prepare/commit split, and how
// often and how long push threads waited for their turn to commit. All
// values are wall-clock measurements — they vary run to run and are not
// part of the deterministic results.
func printTrace(w io.Writer, m *tierscape.MetricsRecorder) {
	fmt.Fprintln(w, "\nper-window trace (wall-clock, nondeterministic):")
	fmt.Fprintln(w, "window  profile_us  solve_us  plan_us  apply_us  compact_us  prepare_us  commit_us  sched_jobs  blocked  stall_us")
	for _, rt := range m.Runtimes {
		p := rt.PhaseWallNs
		fmt.Fprintf(w, "%6d  %10.1f  %8.1f  %7.1f  %8.1f  %10.1f  %10.1f  %9.1f  %10d  %7d  %8.1f\n",
			rt.Window,
			p[0]/1e3, p[1]/1e3, p[2]/1e3, p[3]/1e3, p[4]/1e3,
			rt.PrepareWallNs/1e3, rt.CommitWallNs/1e3,
			rt.Sched.Jobs, rt.Sched.BlockedAwaits,
			float64(rt.Sched.StallNs)/1e3)
	}
}

// resolveTiers maps a -tiers value to the tier lineup: standard, spectrum,
// or a JSON tier file, the artifact's config-file analogue:
// {"byteTiers":["NVMM"], "compressedTiers":[{"codec":"lzo","pool":"zsmalloc","media":"DRAM"}, ...]}.
// tierFileExample is the shape of a -tiers JSON file: NVMM as a byte tier
// and CT-1 (lzo on zsmalloc in DRAM) as the one compressed tier.
const tierFileExample = `{"byteTiers":["NVMM"],"compressedTiers":[{"codec":"lzo","pool":"zsmalloc","media":"DRAM"}]}`

func resolveTiers(name string) ([]tierscape.TierConfig, []tierscape.MediaKind, error) {
	switch name {
	case "standard":
		return tierscape.StandardMix(), []tierscape.MediaKind{tierscape.NVMM}, nil
	case "spectrum":
		return tierscape.Spectrum(), nil, nil
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, nil, err
	}
	var tf struct {
		ByteTiers       []tierscape.MediaKind
		CompressedTiers []tierscape.TierConfig
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, nil, err
	}
	if len(tf.CompressedTiers) == 0 {
		return nil, nil, fmt.Errorf("no compressed tiers in %s", name)
	}
	// An unknown codec or pool is a bad setup, not a failed run.
	for i, c := range tf.CompressedTiers {
		if _, err := ztier.New(i, c); err != nil {
			return nil, nil, err
		}
	}
	return tf.CompressedTiers, tf.ByteTiers, nil
}

// model builds the spec's placement model over the tier lineup; nil means
// the all-DRAM baseline. A two-tier baseline's slow tier is derived from the
// lineup by internal/model.
func (s spec) model(byteTiers []tierscape.MediaKind, tiers []tierscape.TierConfig) (tierscape.Model, error) {
	switch s.Model {
	case "baseline":
		return nil, nil
	case "am":
		return tierscape.AM(s.Alpha), nil
	case "waterfall":
		return tierscape.WaterfallModel(s.Pct), nil
	case "hemem", "gswap", "tmo":
		b := map[string]model.Baseline{"hemem": model.HeMemStar, "gswap": model.GSwapStar, "tmo": model.TMOStar}[s.Model]
		mdl, err := b.New(byteTiers, tiers, s.Pct)
		if err != nil {
			return nil, fmt.Errorf("model %s on tier setup %q: %v", s.Model, s.Tiers, err)
		}
		return mdl, nil
	default:
		return nil, fmt.Errorf("unknown model %q", s.Model)
	}
}

// workloads maps each -workload name to its constructor over a footprint
// of pages.
var workloads = map[string]func(pages int64, seed uint64) (tierscape.Workload, error){
	"masim": func(pages int64, seed uint64) (tierscape.Workload, error) {
		return tierscape.MasimWorkload(pages/3, 20000, seed), nil
	},
	"ycsb-a": ycsb('A'), "ycsb-b": ycsb('B'), "ycsb-c": ycsb('C'),
	"ycsb-d": ycsb('D'), "ycsb-e": ycsb('E'), "ycsb-f": ycsb('F'),
	"memcached-ycsb": func(pages int64, seed uint64) (tierscape.Workload, error) {
		return tierscape.MemcachedYCSB(pages, seed), nil
	},
	"memcached-memtier": func(pages int64, seed uint64) (tierscape.Workload, error) {
		return tierscape.MemcachedMemtier(1024, pages, seed), nil
	},
	"redis": func(pages int64, seed uint64) (tierscape.Workload, error) {
		return tierscape.RedisYCSB(pages, seed), nil
	},
	"bfs": func(pages int64, seed uint64) (tierscape.Workload, error) {
		return tierscape.BFSWorkload(pages*mem.PageSize/128, seed), nil
	},
	"pagerank": func(pages int64, seed uint64) (tierscape.Workload, error) {
		return tierscape.PageRankWorkload(pages*mem.PageSize/128, seed), nil
	},
	"xsbench": func(pages int64, seed uint64) (tierscape.Workload, error) {
		return tierscape.XSBenchWorkload(pages, seed), nil
	},
	"graphsage": func(pages int64, seed uint64) (tierscape.Workload, error) {
		return tierscape.GraphSAGEWorkload(pages, seed), nil
	},
}

// ycsb is the constructor of YCSB core workload letter, A to F.
func ycsb(letter byte) func(pages int64, seed uint64) (tierscape.Workload, error) {
	return func(pages int64, seed uint64) (tierscape.Workload, error) {
		return tierscape.YCSBWorkload(letter, pages, seed)
	}
}

// checkWorkload refuses what buildWorkload cannot build, without building
// it: an unknown name or a footprint outside [1, mem.MaxPages].
func checkWorkload(name string, pages int64) error {
	if pages < 1 || pages > mem.MaxPages {
		return fmt.Errorf("pages %d outside [1, %d]", pages, mem.MaxPages)
	}
	if _, ok := workloads[name]; !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	return nil
}

func buildWorkload(name string, pages int64, seed uint64) (tierscape.Workload, error) {
	if err := checkWorkload(name, pages); err != nil {
		return nil, err
	}
	return workloads[name](pages, seed)
}
