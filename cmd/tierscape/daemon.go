// Daemon mode: `tierscape -daemon` turns the CLI into a resident tiering
// controller. Instead of running one workload for -windows windows and
// exiting, it serves until shut down; workloads attach and detach at
// runtime through POST /command on the -metrics-addr listener (mounted
// next to /metrics, /healthz and /debug/pprof), and every attached
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
)

type daemonOpts struct {
	configPath  string
	tick        time.Duration
	metricsAddr string
	health      obs.HealthConfig
	defaults    spec // the flag values every attach document is laid over
}

// specBuilder lowers attach specs to sim configs and keeps the files
// opened for replay streams so shutdown can close them. A spec with
// "replay" set streams that recorded trace instead of generating a
// workload — the stream is consumed once and the workload stops ticking
// when it drains.
type specBuilder struct {
	defaults spec
	live     *tierscape.LiveMetrics

	mu      sync.Mutex
	closers []io.Closer
}

func (b *specBuilder) build(as daemon.AttachSpec) (sim.Config, error) {
	s, err := b.defaults.overlay(as.Spec)
	if err != nil {
		return sim.Config{}, err
	}
	wl, f, err := s.workload()
	if err != nil {
		return sim.Config{}, err
	}
	cfg, err := s.runConfig(wl)
	if err != nil {
		f.Close()
		return sim.Config{}, err
	}
	if f != nil {
		b.mu.Lock()
		b.closers = append(b.closers, f)
		b.mu.Unlock()
	}
	cfg.Recorder = b.live
	return tierscape.SimConfig(cfg)
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
func runDaemonMode(o daemonOpts, stdout, stderr io.Writer) int {
	if o.metricsAddr == "" {
		fmt.Fprintln(stderr, "daemon mode needs -metrics-addr: runtime commands arrive over HTTP")
		return 2
	}
	if err := o.defaults.checkKnobs(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	dcfg := daemon.DefaultConfig()
	if o.configPath != "" {
		var err error
		if dcfg, err = daemon.LoadConfig(o.configPath); err != nil {
			fmt.Fprintf(stderr, "daemon config: %v\n", err)
			return 2
		}
	}
	if o.tick > 0 {
		dcfg.TickEvery = o.tick
	}

	live := tierscape.NewLiveMetrics()
	d, err := daemon.New(dcfg, daemon.NewWallClock(dcfg.TickEvery), live)
	if err != nil {
		fmt.Fprintln(stderr, err)
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
		fmt.Fprintf(stderr, "daemon listener: %v\n", err)
		return 1
	}
	srv := obs.NewServer(mux)
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(stderr, "daemon: tick %v, max %d workloads, commands at http://%s/command (also /status, /metrics, /healthz)\n",
		dcfg.TickEvery, dcfg.MaxWorkloads, ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Fprintf(stderr, "daemon: %v, shutting down\n", sig)
	case <-shutdown:
		fmt.Fprintln(stderr, "daemon: shutdown command received")
	}

	// Clean shutdown: detach every workload, print its summary, stop.
	st, err := d.Status()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	code := 0
	for _, w := range st.Workloads {
		res, derr := d.Detach(w.Name)
		if res == nil {
			fmt.Fprintf(stderr, "detach %s: %v\n", w.Name, derr)
			code = 1
			continue
		}
		// A tenant detached before its first window has no average to print.
		avg, savings := "-", "-"
		if len(res.Windows) > 0 {
			avg, savings = fmt.Sprintf("%.4f", res.AvgTCO), fmt.Sprintf("%.2f%%", res.SavingsPct())
		}
		fmt.Fprintf(stdout, "%s: %s/%s  windows %d  ops %d  TCO avg %s final %.4f  savings %s\n",
			w.Name, res.WorkloadName, res.ModelName, len(res.Windows), res.Ops,
			avg, res.FinalTCO, savings)
		if derr != nil {
			fmt.Fprintf(stderr, "%s stopped early: %v\n", w.Name, derr)
			code = 1
		}
	}
	d.Stop()
	builder.closeAll()
	_ = ln.Close()
	return code
}
