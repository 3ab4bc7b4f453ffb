// Daemon mode: `tierscape -daemon` turns the CLI into a resident tiering
// controller. Instead of running one workload for -windows windows and
// exiting, it serves until shut down; workloads attach and detach at
// runtime through POST /command on the -metrics-addr listener (mounted
// next to /metrics, /debug/vars and /debug/pprof), and every attached
// workload advances one profile window per tick.
//
//	tierscape -daemon -tick 500ms -metrics-addr :9090
//	curl -X POST localhost:9090/command -d '{"op":"attach","name":"kv"}'
//	curl -X POST localhost:9090/command \
//	    -d '{"op":"attach","name":"replay","spec":{"replay":"run.trace"}}'
//	curl localhost:9090/status
//	curl -X POST localhost:9090/command -d '{"op":"set-alpha","name":"kv","alpha":0.7}'
//	curl -X POST localhost:9090/command -d '{"op":"detach","name":"kv"}'
//	curl -X POST localhost:9090/command -d '{"op":"shutdown"}'
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"tierscape"
	"tierscape/internal/daemon"
	"tierscape/internal/obs"
	"tierscape/internal/sim"
	"tierscape/internal/trace"
)

// specDefaults carries the CLI flag values that seed every attach spec:
// a spec field that is absent inherits the flag.
type specDefaults struct {
	Workload      string
	Model         string
	Alpha         float64
	Pct           float64
	Tiers         string
	Pages         int64
	Seed          uint64
	Ops           int
	Push          int
	Prefetch      int
	CompactBudget int
	WarmSolver    bool
	WarmEps       float64
	WarmFull      int
}

// workloadSpec is the JSON attach spec: every field optional, overlaid
// on the CLI defaults. "replay" streams a recorded trace file instead of
// generating a workload — the stream is consumed once and the workload
// stops ticking when it drains.
type workloadSpec struct {
	Workload      string   `json:"workload,omitempty"`
	Replay        string   `json:"replay,omitempty"`
	Model         string   `json:"model,omitempty"`
	Alpha         *float64 `json:"alpha,omitempty"`
	Pct           *float64 `json:"pct,omitempty"`
	Tiers         string   `json:"tiers,omitempty"`
	Pages         int64    `json:"pages,omitempty"`
	Seed          *uint64  `json:"seed,omitempty"`
	Ops           int      `json:"ops,omitempty"`
	Push          int      `json:"push,omitempty"`
	Prefetch      int      `json:"prefetch,omitempty"`
	CompactBudget int      `json:"compact_budget,omitempty"`
}

type daemonOpts struct {
	configPath  string
	tick        time.Duration
	metricsAddr string
	health      obs.HealthConfig
	defaults    specDefaults
}

// specBuilder lowers attach specs to sim configs and keeps the files
// opened for replay streams so shutdown can close them.
type specBuilder struct {
	defaults specDefaults
	live     *tierscape.LiveMetrics

	mu      sync.Mutex
	closers []io.Closer
}

func (b *specBuilder) build(as daemon.AttachSpec) (sim.Config, error) {
	d := b.defaults
	var spec workloadSpec
	if len(as.Spec) > 0 {
		if err := json.Unmarshal(as.Spec, &spec); err != nil {
			return sim.Config{}, fmt.Errorf("attach spec: %w", err)
		}
	}
	if spec.Workload == "" {
		spec.Workload = d.Workload
	}
	if spec.Model == "" {
		spec.Model = d.Model
	}
	if spec.Alpha == nil {
		spec.Alpha = &d.Alpha
	}
	if spec.Pct == nil {
		spec.Pct = &d.Pct
	}
	if spec.Tiers == "" {
		spec.Tiers = d.Tiers
	}
	if spec.Pages == 0 {
		spec.Pages = d.Pages
	}
	if spec.Seed == nil {
		spec.Seed = &d.Seed
	}
	if spec.Ops == 0 {
		spec.Ops = d.Ops
	}
	if spec.Push == 0 {
		spec.Push = d.Push
	}
	if spec.Prefetch == 0 {
		spec.Prefetch = d.Prefetch
	}
	if spec.CompactBudget == 0 {
		spec.CompactBudget = d.CompactBudget
	}

	var wl tierscape.Workload
	if spec.Replay != "" {
		f, err := os.Open(spec.Replay)
		if err != nil {
			return sim.Config{}, err
		}
		st, err := trace.NewStream(f)
		if err != nil {
			f.Close()
			return sim.Config{}, err
		}
		b.mu.Lock()
		b.closers = append(b.closers, f)
		b.mu.Unlock()
		wl = st
	} else {
		var err error
		wl, err = buildWorkload(spec.Workload, spec.Pages, *spec.Seed)
		if err != nil {
			return sim.Config{}, err
		}
	}
	tiers, byteTiers, slowTiers, err := resolveTiers(spec.Tiers)
	if err != nil {
		return sim.Config{}, fmt.Errorf("tier setup %q: %v", spec.Tiers, err)
	}
	mdl, err := resolveModel(modelSpec{
		Model: spec.Model, Alpha: *spec.Alpha, Pct: *spec.Pct,
		WarmSolver: d.WarmSolver, WarmEps: d.WarmEps, WarmFull: d.WarmFull,
	}, slowTiers)
	if err != nil {
		return sim.Config{}, err
	}
	return tierscape.SimConfig(tierscape.RunConfig{
		Workload:               wl,
		Tiers:                  tiers,
		ByteTiers:              byteTiers,
		Model:                  mdl,
		OpsPerWindow:           spec.Ops,
		SampleRate:             50,
		Seed:                   *spec.Seed,
		PushThreads:            spec.Push,
		CompactBudget:          spec.CompactBudget,
		PrefetchFaultThreshold: spec.Prefetch,
		Recorder:               b.live,
	})
}

func (b *specBuilder) closeAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.closers {
		c.Close()
	}
	b.closers = nil
}

// runDaemonMode is the -daemon entry point; its return value is the
// process exit code.
func runDaemonMode(o daemonOpts) int {
	if o.metricsAddr == "" {
		fmt.Fprintln(os.Stderr, "daemon mode needs -metrics-addr: runtime commands arrive over HTTP")
		return 2
	}
	dcfg := daemon.DefaultConfig()
	if o.configPath != "" {
		var err error
		if dcfg, err = daemon.LoadConfig(o.configPath); err != nil {
			fmt.Fprintf(os.Stderr, "daemon config: %v\n", err)
			return 2
		}
	}
	if o.tick > 0 {
		dcfg.TickEvery = o.tick
	}

	live := tierscape.NewLiveMetrics()
	d, err := daemon.New(dcfg, daemon.NewWallClock(dcfg.TickEvery), live)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	shutdown := make(chan struct{})
	var shutdownOnce sync.Once
	builder := &specBuilder{defaults: o.defaults, live: live}
	hc := daemon.HandlerConfig{
		Build: builder.build,
		LoadConfig: func() (daemon.Config, error) {
			if o.configPath == "" {
				return daemon.Config{}, fmt.Errorf("daemon: no -daemon-config file to reload")
			}
			return daemon.LoadConfig(o.configPath)
		},
		Shutdown: func() { shutdownOnce.Do(func() { close(shutdown) }) },
	}

	// One listener serves both surfaces: the daemon's command interface
	// and the observability endpoints.
	mux := http.NewServeMux()
	dh := daemon.NewHandler(d, hc)
	mux.Handle("/command", dh)
	mux.Handle("/status", dh)
	// The daemon's /healthz uses the flag-configured thresholds; the
	// exact-path registration wins over the obs.Handler default mounted
	// under "/".
	mux.Handle("/healthz", obs.NewHealth(live, o.health))
	mux.Handle("/", obs.Handler(live))
	ln, err := net.Listen("tcp", o.metricsAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemon listener: %v\n", err)
		return 1
	}
	srv := obs.NewServer(mux)
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "daemon: tick %v, max %d workloads, commands at http://%s/command (also /status, /metrics, /healthz)\n",
		dcfg.TickEvery, dcfg.MaxWorkloads, ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "daemon: %v, shutting down\n", sig)
	case <-shutdown:
		fmt.Fprintln(os.Stderr, "daemon: shutdown command received")
	}

	// Clean shutdown: detach every workload, print its summary, stop.
	st, err := d.Status()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := 0
	for _, w := range st.Workloads {
		res, derr := d.Detach(w.Name)
		if res == nil {
			fmt.Fprintf(os.Stderr, "detach %s: %v\n", w.Name, derr)
			code = 1
			continue
		}
		fmt.Printf("%s: %s/%s  windows %d  ops %d  TCO avg %.4f final %.4f  savings %.2f%%\n",
			w.Name, res.WorkloadName, res.ModelName, len(res.Windows), res.Ops,
			res.AvgTCO, res.FinalTCO, res.SavingsPct())
		if derr != nil {
			fmt.Fprintf(os.Stderr, "%s stopped early: %v\n", w.Name, derr)
			code = 1
		}
	}
	d.Stop()
	builder.closeAll()
	_ = ln.Close()
	return code
}
