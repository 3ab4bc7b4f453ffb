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
	"flag"
	"fmt"
	"os"
	"time"

	"tierscape"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/obs"
	"tierscape/internal/trace"
	"tierscape/internal/ztier"
)

func main() {
	workloadName := flag.String("workload", "memcached-ycsb",
		"workload: memcached-ycsb, memcached-memtier, redis, bfs, pagerank, xsbench, graphsage, masim, ycsb-{a..f}")
	modelName := flag.String("model", "am",
		"placement model: baseline, am, waterfall, hemem, gswap, tmo")
	alpha := flag.Float64("alpha", 0.1, "analytical model knob in [0,1]")
	warmSolver := flag.Bool("warm-solver", false, "enable the warm-start incremental MCKP solver (model am; placements identical to cold at -warm-eps 0)")
	warmEps := flag.Float64("warm-eps", 0, "warm solver: relative drift tolerance for reusing a cached region class (0 = rebuild on any change)")
	warmFull := flag.Int("warm-full", 0, "warm solver: force a full re-solve every N windows (0 = default cadence)")
	pct := flag.Float64("pct", 25, "hotness percentile threshold for threshold models")
	tiers := flag.String("tiers", "standard", "tier setup: standard (DRAM+NVMM+CT1+CT2), spectrum (DRAM+C1,C2,C4,C7,C12), or a JSON file (see -tiers help)")
	windows := flag.Int("windows", 8, "profile windows to run")
	ops := flag.Int("ops", 20000, "operations per window")
	pages := flag.Int64("pages", 16*tierscape.RegionPages, "workload footprint in 4 KB pages")
	seed := flag.Uint64("seed", 42, "random seed")
	prefetch := flag.Int("prefetch", 0, "prefetcher fault threshold per region per window (0 = off)")
	push := flag.Int("push", 2, "push threads applying migrations (results identical at any value)")
	compactBudget := flag.Int("compact-budget", 0, "pool pages the per-window compaction pass may reclaim across tiers (0 = unbounded full sweep; the remainder carries over)")
	record := flag.String("record", "", "record the access trace to this file while running")
	replay := flag.String("replay", "", "replay a recorded trace file as the workload")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
	metricsHold := flag.Duration("metrics-hold", 0, "keep the metrics endpoint up this long after the run finishes")
	events := flag.String("events", "", "write the run's deterministic JSONL event stream to this file")
	windowsCSV := flag.String("windows-csv", "", "write per-window snapshots as CSV rows to this file (deterministic channel)")
	healthPressure := flag.Float64("health-max-pressure", 0.25, "healthz: degrade when the last window's PSI-style stall fraction exceeds this (0 disables)")
	healthThrash := flag.Int("health-max-thrash", 64, "healthz: degrade when regions over the ping-pong thrash threshold exceed this (0 disables)")
	healthStorm := flag.Float64("health-max-storm-bps", float64(8<<30), "healthz: degrade when the last window's migration traffic rate exceeds this many bytes/sec (0 disables)")
	healthFallback := flag.Float64("health-max-fallback-rate", 0.5, "healthz: degrade when cumulative solver fallbacks per window exceed this (0 disables)")
	showTrace := flag.Bool("trace", false, "print the per-window span trace (phase wall times, prepare/commit split, scheduler stalls)")
	daemonMode := flag.Bool("daemon", false, "run as a resident tiering daemon: workloads attach/detach at runtime via POST /command on -metrics-addr (required); other flags become attach-spec defaults")
	daemonConfigPath := flag.String("daemon-config", "", "daemon config JSON file ({\"tick_every\":\"1s\",\"max_workloads\":8}); re-read by the reload command")
	tick := flag.Duration("tick", 0, "daemon tick period override: one profile window per attached workload per tick")
	flag.Parse()

	if *daemonMode {
		os.Exit(runDaemonMode(daemonOpts{
			configPath:  *daemonConfigPath,
			tick:        *tick,
			metricsAddr: *metricsAddr,
			health: obs.HealthConfig{
				MaxPressure:         *healthPressure,
				MaxThrashRegions:    *healthThrash,
				MaxStormBytesPerSec: *healthStorm,
				MaxFallbackRate:     *healthFallback,
			},
			defaults: specDefaults{
				Workload:      *workloadName,
				Model:         *modelName,
				Alpha:         *alpha,
				Pct:           *pct,
				Tiers:         *tiers,
				Pages:         *pages,
				Seed:          *seed,
				Ops:           *ops,
				Push:          *push,
				Prefetch:      *prefetch,
				CompactBudget: *compactBudget,
				WarmSolver:    *warmSolver,
				WarmEps:       *warmEps,
				WarmFull:      *warmFull,
			},
		}))
	}

	var wl tierscape.Workload
	var recorder *trace.Recorder
	switch {
	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		tr, err := trace.NewReader(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		wl = tr
	default:
		var err error
		wl, err = buildWorkload(*workloadName, *pages, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			defer f.Close()
			recorder, err = trace.NewRecorder(f, wl)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			wl = recorder
		}
	}

	cfg := tierscape.RunConfig{
		Workload:               wl,
		Windows:                *windows,
		OpsPerWindow:           *ops,
		SampleRate:             50,
		Seed:                   *seed,
		PushThreads:            *push,
		CompactBudget:          *compactBudget,
		PrefetchFaultThreshold: *prefetch,
	}

	// Observability: each enabled sink becomes one leg of a tee. The
	// deterministic legs (JSONL stream, in-memory capture for -trace) see
	// the same events at any -push value; the live aggregator additionally
	// sees wall-clock runtime spans.
	var recs []tierscape.Recorder
	if *metricsAddr != "" {
		live := tierscape.NewLiveMetrics()
		addr, err := tierscape.ServeMetrics(*metricsAddr, live)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (also /debug/vars, /debug/pprof)\n", addr)
		recs = append(recs, live)
		if *metricsHold > 0 {
			defer func() {
				fmt.Fprintf(os.Stderr, "holding metrics endpoint for %v\n", *metricsHold)
				time.Sleep(*metricsHold)
			}()
		}
	}
	var stream *tierscape.EventStream
	var eventsFile *os.File
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "events file: %v\n", err)
			os.Exit(1)
		}
		eventsFile = f
		stream = tierscape.NewEventStream(f)
		recs = append(recs, stream)
	}
	var windowCSV *obs.CSVWriter
	var windowCSVFile *os.File
	if *windowsCSV != "" {
		f, err := os.Create(*windowsCSV)
		if err != nil {
			fmt.Fprintf(os.Stderr, "windows-csv file: %v\n", err)
			os.Exit(1)
		}
		windowCSVFile = f
		windowCSV = tierscape.NewWindowCSV(f)
		recs = append(recs, windowCSV)
	}
	var capture *tierscape.MetricsRecorder
	if *showTrace {
		capture = &tierscape.MetricsRecorder{}
		recs = append(recs, capture)
	}
	cfg.Recorder = tierscape.TeeRecorders(recs...)
	var slowTiers map[string]tierscape.TierID
	var err error
	cfg.Tiers, cfg.ByteTiers, slowTiers, err = resolveTiers(*tiers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tier setup %q: %v\n", *tiers, err)
		os.Exit(2)
	}
	cfg.Model, err = resolveModel(modelSpec{
		Model: *modelName, Alpha: *alpha, Pct: *pct,
		WarmSolver: *warmSolver, WarmEps: *warmEps, WarmFull: *warmFull,
	}, slowTiers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	res, err := tierscape.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if recorder != nil {
		if err := recorder.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "closing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace recorded to %s\n", *record)
	}

	fmt.Printf("workload: %s   model: %s   footprint: %d pages (%d regions)\n",
		res.WorkloadName, res.ModelName, wl.NumPages(),
		(wl.NumPages()+mem.RegionPages-1)/mem.RegionPages)
	fmt.Println("window  app_ms  daemon_ms  moves  faults  tco  savings%  tier_pages")
	for _, w := range res.Windows {
		fmt.Printf("%6d  %6.1f  %9.2f  %5d  %6d  %.4f  %7.2f  %v\n",
			w.Window, w.AppNs/1e6, w.DaemonNs/1e6, w.Moves, w.Faults,
			w.TCO, w.SavingsPctVs(res.TCOMax), w.TierPages)
	}
	fmt.Printf("\nops: %d   throughput: %.0f ops/s (virtual)\n", res.Ops, res.ThroughputOpsPerSec())
	fmt.Printf("latency: avg %.1fus  p95 %.1fus  p99.9 %.1fus\n",
		res.OpLat.Mean()/1000, res.OpLat.Percentile(95)/1000, res.OpLat.Percentile(99.9)/1000)
	fmt.Printf("TCO: max %.4f  avg %.4f  final %.4f   time-averaged savings %.2f%%\n",
		res.TCOMax, res.AvgTCO, res.FinalTCO, res.SavingsPct())

	// Sinks latch their first write error; surface it (and any close
	// error) as a nonzero exit instead of leaving a silently truncated
	// file behind.
	if stream != nil {
		if err := stream.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "event stream: %v\n", err)
			os.Exit(1)
		}
		if err := eventsFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "closing events file: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("events written to %s\n", *events)
	}
	if windowCSV != nil {
		if err := windowCSV.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "windows CSV: %v\n", err)
			os.Exit(1)
		}
		if err := windowCSVFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "closing windows CSV: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("window snapshots written to %s\n", *windowsCSV)
	}
	if capture != nil {
		printTrace(capture)
	}
}

// printTrace renders the span-style per-window trace: wall time of each
// control-loop phase, the apply phase's prepare/commit split, and how
// often and how long push threads waited for their turn to commit. All
// values are wall-clock measurements — they vary run to run and are not
// part of the deterministic results.
func printTrace(m *tierscape.MetricsRecorder) {
	fmt.Println("\nper-window trace (wall-clock, nondeterministic):")
	fmt.Println("window  profile_us  solve_us  plan_us  apply_us  compact_us  prepare_us  commit_us  sched_jobs  blocked  stall_us")
	for _, rt := range m.Runtimes {
		p := rt.PhaseWallNs
		fmt.Printf("%6d  %10.1f  %8.1f  %7.1f  %8.1f  %10.1f  %10.1f  %9.1f  %10d  %7d  %8.1f\n",
			rt.Window,
			p[0]/1e3, p[1]/1e3, p[2]/1e3, p[3]/1e3, p[4]/1e3,
			rt.PrepareWallNs/1e3, rt.CommitWallNs/1e3,
			rt.Sched.Jobs, rt.Sched.BlockedAwaits,
			float64(rt.Sched.StallNs)/1e3)
	}
}

// resolveTiers maps a -tiers value (standard, spectrum, or a JSON tier
// file) to the tier lineup plus each baseline model's slow-tier target.
// Shared by the batch path and the daemon's attach-spec builder.
func resolveTiers(name string) ([]tierscape.TierConfig, []tierscape.MediaKind, map[string]tierscape.TierID, error) {
	switch name {
	case "standard":
		return tierscape.StandardMix(), []tierscape.MediaKind{tierscape.NVMM},
			map[string]tierscape.TierID{
				"hemem": tierscape.StdNVMM, "gswap": tierscape.StdCT1, "tmo": tierscape.StdCT2,
			}, nil
	case "spectrum":
		return tierscape.Spectrum(), nil,
			map[string]tierscape.TierID{
				"hemem": 1, "gswap": 4, "tmo": 5, // C7 is GSwap's tier, C12 TMO-like
			}, nil
	default:
		// Treat as a JSON tier-config file: the artifact's config-file
		// analogue. Format: {"byteTiers":["NVMM"], "compressedTiers":
		// [{"codec":"lzo","pool":"zsmalloc","media":"DRAM"}, ...]}.
		tcs, bts, err := loadTierFile(name)
		if err != nil {
			return nil, nil, nil, err
		}
		// Baselines target the last tiers by convention.
		n := tierscape.TierID(len(bts) + len(tcs))
		return tcs, bts, map[string]tierscape.TierID{"hemem": 1, "gswap": n, "tmo": n}, nil
	}
}

// modelSpec bundles the model-selection knobs (flag values or attach-spec
// fields) for resolveModel.
type modelSpec struct {
	Model      string
	Alpha, Pct float64
	WarmSolver bool
	WarmEps    float64
	WarmFull   int
}

// resolveModel builds the placement model for a spec; nil means the
// all-DRAM baseline.
func resolveModel(s modelSpec, slowTiers map[string]tierscape.TierID) (tierscape.Model, error) {
	switch s.Model {
	case "baseline":
		return nil, nil
	case "am":
		if s.WarmSolver {
			return tierscape.AMWarm(s.Alpha, s.WarmEps, s.WarmFull), nil
		}
		return tierscape.AM(s.Alpha), nil
	case "waterfall":
		return tierscape.WaterfallModel(s.Pct), nil
	case "hemem":
		return tierscape.HeMemBaseline(slowTiers["hemem"], s.Pct), nil
	case "gswap":
		return tierscape.GSwapBaseline(slowTiers["gswap"], s.Pct), nil
	case "tmo":
		return tierscape.TMOBaseline(slowTiers["tmo"], s.Pct), nil
	default:
		return nil, fmt.Errorf("unknown model %q", s.Model)
	}
}

// tierFile is the JSON schema for custom tier setups.
type tierFile struct {
	ByteTiers       []string `json:"byteTiers"`
	CompressedTiers []struct {
		Codec string `json:"codec"`
		Pool  string `json:"pool"`
		Media string `json:"media"`
	} `json:"compressedTiers"`
}

func loadTierFile(path string) ([]tierscape.TierConfig, []tierscape.MediaKind, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var tf tierFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, nil, err
	}
	var bts []tierscape.MediaKind
	for _, b := range tf.ByteTiers {
		k, err := media.ParseKind(b)
		if err != nil {
			return nil, nil, err
		}
		bts = append(bts, k)
	}
	var tcs []tierscape.TierConfig
	for _, c := range tf.CompressedTiers {
		k, err := media.ParseKind(c.Media)
		if err != nil {
			return nil, nil, err
		}
		tcs = append(tcs, ztier.Config{Codec: c.Codec, Pool: c.Pool, Media: k})
	}
	if len(tcs) == 0 {
		return nil, nil, fmt.Errorf("no compressed tiers in %s", path)
	}
	return tcs, bts, nil
}

func buildWorkload(name string, pages int64, seed uint64) (tierscape.Workload, error) {
	switch name {
	case "masim":
		return tierscape.MasimWorkload(pages/3, 20000, seed), nil
	case "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f":
		return tierscape.YCSBWorkload(name[5]-'a'+'A', pages, seed)
	case "memcached-ycsb":
		return tierscape.MemcachedYCSB(pages, seed), nil
	case "memcached-memtier":
		return tierscape.MemcachedMemtier(1024, pages, seed), nil
	case "redis":
		return tierscape.RedisYCSB(pages, seed), nil
	case "bfs":
		return tierscape.BFSWorkload(pages*mem.PageSize/128, seed), nil
	case "pagerank":
		return tierscape.PageRankWorkload(pages*mem.PageSize/128, seed), nil
	case "xsbench":
		return tierscape.XSBenchWorkload(pages, seed), nil
	case "graphsage":
		return tierscape.GraphSAGEWorkload(pages, seed), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}
