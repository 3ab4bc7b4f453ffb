// Package daemon hosts the resident tiering controller: the long-running
// serving mode of the TS-Daemon. Where sim.Run drives one workload for a
// fixed number of windows and exits, a Daemon stays up, manages several
// live workloads concurrently, and runs each one's profile → solve →
// migrate → compact cycle (a sim.Stepper) on every tick of an injected
// Clock. Runtime commands — attach/detach a workload, change the model's
// TCO/perf trade-off α, force a compaction sweep, reload the daemon
// config — arrive while it runs, with no restart.
//
// Determinism contract: all daemon state is owned by a single loop
// goroutine; ticks and commands are serialized onto it. A daemon stepped
// K ticks over a recorded access stream performs, per workload, exactly
// the call sequence NewStepper + K×(StepAccess, StepControl) — the
// definition of batch sim.Run — so its results, window snapshots and
// move-event streams are byte-identical to the batch run's at any
// GOMAXPROCS (the equivalence suite pins this). Wall
// time never enters: the Clock only decides when a window happens, and
// the windows themselves run on modeled virtual time.
//
// What a tick overlaps: the access halves, and only those. A tick hands
// every eligible workload's stepper to a goroutine of its own that runs
// StepAccess (the hand-over is the go statement); the loop then walks the
// workloads in attach order, receives workload i's access outcome on that
// instance's one channel (the hand-back) and runs its StepControl itself.
// Access halves share nothing — own manager (Attach rejects a shared
// one), own workload, own profiler, no recorder — so they need no lock.
// Control halves stay serial on the loop goroutine because that is where
// a shared recorder is called: obs.Live and the event sinks see the same
// calls in the same order as a serial loop, with no buffering and no
// per-tenant recorder; because apply already fills the cores with its
// push threads; and because the benchmark's trace reconstructs a tenant's
// step as "the previous tenant's last recorder call → its own". There is
// no cap on the access goroutines: a GOMAXPROCS-sized one measured slower
// on four tenants × 2 vCPUs (3.0–3.1 M vs 3.4 M ops/s), since a capped
// late starter delays the in-order control walk behind it.
//
// Fault containment: a step half that returns an error or panics
// quarantines its workload — the error (for a panic: workload name, panic
// value, stack) is parked on the instance, shown by Status, returned by
// Detach with the partial result — and the other workloads keep ticking,
// byte-identical to their solo runs.
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"tierscape/internal/mem"
	"tierscape/internal/obs"
	"tierscape/internal/sim"
)

// ErrStopped is returned by commands issued to a stopped daemon.
var ErrStopped = errors.New("daemon: stopped")

// Config is the daemon's own (reloadable) configuration. It governs the
// serving loop only; per-workload simulation settings travel in the
// sim.Config passed to Attach.
type Config struct {
	// TickEvery is the control-loop period: every tick runs one profile
	// window for every attached workload.
	TickEvery time.Duration
	// MaxWorkloads caps concurrently attached workloads.
	MaxWorkloads int
}

// DefaultConfig returns the serving defaults: one window per second,
// up to 8 attached workloads.
func DefaultConfig() Config {
	return Config{TickEvery: time.Second, MaxWorkloads: 8}
}

// Validate rejects non-positive periods or workload caps.
func (c Config) Validate() error {
	if c.TickEvery <= 0 {
		return fmt.Errorf("daemon: TickEvery must be positive, got %v", c.TickEvery)
	}
	if c.MaxWorkloads < 1 {
		return fmt.Errorf("daemon: MaxWorkloads must be >= 1, got %d", c.MaxWorkloads)
	}
	return nil
}

// configJSON is the on-disk shape: durations as strings ("500ms").
type configJSON struct {
	TickEvery    string `json:"tick_every,omitempty"`
	MaxWorkloads int    `json:"max_workloads,omitempty"`
}

// MarshalJSON renders TickEvery as a duration string.
func (c Config) MarshalJSON() ([]byte, error) {
	return json.Marshal(configJSON{
		TickEvery:    c.TickEvery.String(),
		MaxWorkloads: c.MaxWorkloads,
	})
}

// UnmarshalJSON overlays the fields present in the document onto c, so
// partial config files inherit whatever c already holds (LoadConfig
// seeds it with DefaultConfig).
func (c *Config) UnmarshalJSON(b []byte) error {
	var j configJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if j.TickEvery != "" {
		d, err := time.ParseDuration(j.TickEvery)
		if err != nil {
			return fmt.Errorf("daemon: tick_every: %w", err)
		}
		c.TickEvery = d
	}
	if j.MaxWorkloads != 0 {
		c.MaxWorkloads = j.MaxWorkloads
	}
	return nil
}

// LoadConfig reads a JSON config file over the defaults and validates
// the result. The same loader serves startup and the reload command, so
// a file that fails validation can never become the active config.
func LoadConfig(path string) (Config, error) {
	cfg := DefaultConfig()
	b, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		return cfg, err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// instance is one attached workload: its stepper plus the first step
// error, if any (an errored instance stops ticking but stays attached so
// Detach can surface the error with the partial result).
type instance struct {
	name string
	st   *sim.Stepper
	err  error
	// accessed carries one tick's access-half outcome from the access
	// goroutine back to the loop. Capacity 1: the send never blocks, so
	// the goroutine always exits and the loop's receive is what waits.
	accessed chan error
	stepping bool // this tick started an access half (loop-owned)
}

// exhausted reports a drained streaming source (a trace.Reader past its
// last op): it will never produce another access.
func (in *instance) exhausted() bool {
	ex, ok := in.st.Workload().(interface{ Exhausted() bool })
	return ok && ex.Exhausted()
}

// runAccess is the body of a tick's access goroutine.
func (in *instance) runAccess() {
	in.accessed <- in.guard("access", in.st.StepAccess)
}

// guard runs one half of a step and turns a panic in it into the error
// that quarantines the workload.
func (in *instance) guard(phase string, half func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("daemon: workload %q panicked in its %s phase: %v\n%s", in.name, phase, v, debug.Stack())
		}
	}()
	return half()
}

// command is a closure shipped to the loop goroutine. Commands execute
// between ticks on the loop's own thread, which is what lets them touch
// stepper internals (model α, manager compaction) without any locking.
type command struct {
	op    string
	fn    func() error
	reply chan error
}

// Daemon is the resident controller. New starts its loop immediately;
// Stop halts it. All exported commands are safe for concurrent use from
// any goroutine — they serialize onto the loop.
type Daemon struct {
	clk  Clock
	live *obs.Live

	cmds chan command
	quit chan struct{} // closed by Stop: loop, please exit
	done chan struct{} // closed by the loop on exit

	stopOnce sync.Once

	// Loop-owned state; never touched off the loop goroutine.
	cfg   Config
	insts []*instance
	ticks int64
}

// New validates cfg and starts a daemon ticking on clk. live may be nil
// to disable gauge export; when set, the daemon publishes tick,
// attached-workload and per-command counters into it. The daemon takes
// ownership of clk and stops it on Stop.
func New(cfg Config, clk Clock, live *obs.Live) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clk == nil {
		return nil, errors.New("daemon: Clock is required")
	}
	d := &Daemon{
		clk:  clk,
		live: live,
		cfg:  cfg,
		cmds: make(chan command),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	if live != nil {
		live.SetDaemonAttached(0)
	}
	go d.run()
	return d, nil
}

// Stop halts the loop, stops the clock, and waits for the loop to exit.
// Attached workloads stay attached (their steppers simply stop being
// ticked); callers wanting summaries should Detach before Stop.
// Idempotent and safe from any goroutine.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() {
		close(d.quit)
		<-d.done
		d.clk.Stop()
	})
}

// run is the loop goroutine: the sole owner of daemon state. Ticks and
// commands interleave but never overlap, which is the whole concurrency
// story — no mutexes, no atomics, no torn state.
func (d *Daemon) run() {
	defer close(d.done)
	for {
		select {
		case <-d.quit:
			return
		case <-d.clk.Ticks():
			d.tick()
		case c := <-d.cmds:
			err := c.fn()
			if d.live != nil && c.op != "barrier" && c.op != "status" {
				d.live.AddDaemonCommand(c.op, err == nil)
			}
			c.reply <- err
		}
	}
}

// tick runs one profile window for every attached workload: all access
// halves at once, each on its own goroutine, then the control halves on
// this goroutine in attach order, each as soon as its workload's access
// half is in (package comment, "What a tick overlaps"). Every goroutine
// started here has been received from before tick returns. Errored
// instances are skipped (their error is parked for Detach); exhausted
// streaming sources are skipped too — a drained trace.Reader will never
// produce another access, so stepping it would only record empty windows.
func (d *Daemon) tick() {
	for _, in := range d.insts {
		in.stepping = in.err == nil && !in.exhausted()
		if in.stepping {
			go in.runAccess()
		}
	}
	for _, in := range d.insts {
		if !in.stepping {
			continue
		}
		err := <-in.accessed
		if err == nil {
			err = in.guard("control", in.st.StepControl)
		}
		in.err = err
	}
	d.ticks++
	if d.live != nil {
		d.live.AddDaemonTick()
	}
}

// do ships fn to the loop and waits for its reply. ErrStopped if the
// daemon has shut down before or while the command was queued.
func (d *Daemon) do(op string, fn func() error) error {
	c := command{op: op, fn: fn, reply: make(chan error, 1)}
	select {
	case d.cmds <- c:
	case <-d.done:
		return ErrStopped
	}
	select {
	case err := <-c.reply:
		return err
	case <-d.done:
		return ErrStopped
	}
}

// find returns the attached instance index for name, or -1.
// Loop-goroutine only.
func (d *Daemon) find(name string) int {
	for i, in := range d.insts {
		if in.name == name {
			return i
		}
	}
	return -1
}

// Attach adds a workload under a unique name. cfg is a full sim.Config
// (cfg.Windows is ignored — the daemon decides how long the workload
// runs); validation errors from sim.NewStepper are returned verbatim, and
// a cfg.Manager that an attached workload already owns is rejected. The
// new workload starts participating at the next tick.
func (d *Daemon) Attach(name string, cfg sim.Config) error {
	return d.do("attach", func() error {
		if name == "" {
			return errors.New("daemon: workload name must be non-empty")
		}
		if d.find(name) >= 0 {
			return fmt.Errorf("daemon: workload %q already attached", name)
		}
		if len(d.insts) >= d.cfg.MaxWorkloads {
			return fmt.Errorf("daemon: workload limit reached (%d attached, max %d)",
				len(d.insts), d.cfg.MaxWorkloads)
		}
		// Access halves of one tick run at once, each assuming it owns
		// its manager: a manager under two instances would be a data race.
		for _, in := range d.insts {
			if in.st.Manager() == cfg.Manager {
				return fmt.Errorf("daemon: workload %q: its manager is already owned by attached workload %q", name, in.name)
			}
		}
		st, err := sim.NewStepper(cfg)
		if err != nil {
			return err
		}
		d.insts = append(d.insts, &instance{name: name, st: st, accessed: make(chan error, 1)})
		if d.live != nil {
			d.live.SetDaemonAttached(len(d.insts))
		}
		return nil
	})
}

// Detach removes a workload and returns its finalized result over the
// windows it ran. If the workload's stepper had failed mid-run, the
// partial result is returned together with that error; an unknown name
// returns a nil result.
func (d *Daemon) Detach(name string) (*sim.Result, error) {
	var res *sim.Result
	var stepErr error
	err := d.do("detach", func() error {
		i := d.find(name)
		if i < 0 {
			return fmt.Errorf("daemon: workload %q not attached", name)
		}
		in := d.insts[i]
		res, stepErr = in.st.Result(), in.err
		// slices.Delete zeroes the vacated tail slot, so the detached
		// stepper (and the migration scratch it owns) is collectable.
		d.insts = slices.Delete(d.insts, i, i+1)
		if d.live != nil {
			d.live.SetDaemonAttached(len(d.insts))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, stepErr
}

// SetAlpha changes a workload's TCO/performance trade-off knob for every
// subsequent solve. It requires the workload's placement model to
// support live α changes (model.Analytical does; baseline runs have no
// model at all). Safe mid-run by construction: α only enters the solver
// through the per-solve knapsack budget, never the cached option
// pricing, so the model's cached solver state stays valid across the
// change.
func (d *Daemon) SetAlpha(name string, alpha float64) error {
	return d.do("set-alpha", func() error {
		i := d.find(name)
		if i < 0 {
			return fmt.Errorf("daemon: workload %q not attached", name)
		}
		m, ok := d.insts[i].st.Model().(interface{ SetAlpha(float64) error })
		if !ok {
			return fmt.Errorf("daemon: workload %q's model does not support live alpha changes", name)
		}
		return m.SetAlpha(alpha)
	})
}

// ForceCompact runs a compaction pass over a workload's manager right
// now, between windows, and returns what it reclaimed. The pass is the
// same zs_compact pass the control loop runs after each migration window.
func (d *Daemon) ForceCompact(name string) (mem.CompactStats, error) {
	var cs mem.CompactStats
	err := d.do("force-compact", func() error {
		i := d.find(name)
		if i < 0 {
			return fmt.Errorf("daemon: workload %q not attached", name)
		}
		cs = d.insts[i].st.Manager().Compact()
		return nil
	})
	return cs, err
}

// Reload swaps in a new daemon config without restart. The new config is
// validated first; on failure the old config stays active untouched. A
// TickEvery change retunes the clock in place when the clock supports it
// (WallClock does). Lowering MaxWorkloads below the currently attached
// count is allowed and only constrains future attaches.
func (d *Daemon) Reload(cfg Config) error {
	return d.do("reload", func() error {
		if err := cfg.Validate(); err != nil {
			return err
		}
		if cfg.TickEvery != d.cfg.TickEvery {
			if r, ok := d.clk.(interface{ Reset(time.Duration) }); ok {
				r.Reset(cfg.TickEvery)
			}
		}
		d.cfg = cfg
		return nil
	})
}

// Barrier is a synchronous no-op command: when it returns, every tick
// and command delivered before it has fully executed. With a FakeClock,
// Step-then-Barrier runs exactly one window deterministically.
func (d *Daemon) Barrier() error {
	return d.do("barrier", func() error { return nil })
}

// WorkloadStatus describes one attached workload.
type WorkloadStatus struct {
	Name string `json:"name"`
	// Windows is how many profile windows the workload has run.
	Windows int `json:"windows"`
	// Exhausted reports a drained streaming source (the workload no
	// longer ticks).
	Exhausted bool `json:"exhausted,omitempty"`
	// Err is the stepper's failure — an error or a recovered panic — if
	// it has one (the workload is quarantined: it no longer ticks; Detach
	// returns this).
	Err string `json:"error,omitempty"`
}

// Status is a point-in-time snapshot of the daemon.
type Status struct {
	Ticks     int64            `json:"ticks"`
	Config    Config           `json:"config"`
	Workloads []WorkloadStatus `json:"workloads"`
}

// Status snapshots the daemon: tick count, active config, and the
// attached workloads in attach order.
func (d *Daemon) Status() (Status, error) {
	var s Status
	err := d.do("status", func() error {
		s.Ticks = d.ticks
		s.Config = d.cfg
		s.Workloads = make([]WorkloadStatus, 0, len(d.insts))
		for _, in := range d.insts {
			ws := WorkloadStatus{Name: in.name, Windows: in.st.Windows(), Exhausted: in.exhausted()}
			if in.err != nil {
				ws.Err = in.err.Error()
			}
			s.Workloads = append(s.Workloads, ws)
		}
		return nil
	})
	return s, err
}
