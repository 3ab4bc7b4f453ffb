// Command-interface suite: every runtime command's happy path and error
// paths, config load/reload semantics, and the daemon gauges exported
// through obs.Live.
package daemon

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/sim"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// testSimConfig is a small but fully valid workload: 4-tier mix,
// analytical model, a few hundred ops per window.
func testSimConfig(t *testing.T) sim.Config {
	t.Helper()
	wl := workload.Memcached(workload.DriverYCSB, 1024, 4*mem.RegionPages, 1)
	m, err := mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         corpus.NewGenerator(wl.Content(), 99),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Manager:      m,
		Workload:     wl,
		Model:        &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"},
		OpsPerWindow: 400,
		SampleRate:   20,
	}
}

// baselineSimConfig is testSimConfig without a placement model.
func baselineSimConfig(t *testing.T) sim.Config {
	t.Helper()
	cfg := testSimConfig(t)
	cfg.Model = nil
	return cfg
}

func newTestDaemon(t *testing.T, cfg Config, live *obs.Live) (*Daemon, *FakeClock) {
	t.Helper()
	clk := NewFakeClock()
	d, err := New(cfg, clk, live)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d, clk
}

// TestDaemonCommandErrors drives every command's error paths against one
// live daemon, table-style. The daemon must survive each error with its
// state intact — the final checks confirm the original workload still
// ticks and the original config is still active.
func TestDaemonCommandErrors(t *testing.T) {
	d, clk := newTestDaemon(t, Config{TickEvery: time.Second, MaxWorkloads: 3}, nil)
	if err := d.Attach("kv", testSimConfig(t)); err != nil {
		t.Fatal(err)
	}
	if err := d.Attach("kv2", baselineSimConfig(t)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func() error
		want string // substring of the expected error
	}{
		{"attach empty name", func() error { return d.Attach("", testSimConfig(t)) }, "non-empty"},
		{"attach duplicate", func() error { return d.Attach("kv", testSimConfig(t)) }, "already attached"},
		{"attach over limit", func() error {
			// MaxWorkloads is 3; kv + kv2 + filler exhaust it.
			if err := d.Attach("filler", baselineSimConfig(t)); err != nil {
				return fmt.Errorf("filler attach failed early: %v", err)
			}
			defer d.Detach("filler")
			return d.Attach("overflow", testSimConfig(t))
		}, "workload limit reached"},
		{"attach invalid sim config", func() error {
			return d.Attach("broken", sim.Config{})
		}, "Manager and Workload are required"},
		{"detach unknown", func() error { _, err := d.Detach("ghost"); return err }, "not attached"},
		{"set-alpha unknown workload", func() error { return d.SetAlpha("ghost", 0.5) }, "not attached"},
		{"set-alpha without model", func() error { return d.SetAlpha("kv2", 0.5) }, "does not support live alpha"},
		{"set-alpha out of range", func() error { return d.SetAlpha("kv", 1.5) }, "alpha must be in [0,1]"},
		{"force-compact unknown", func() error { _, err := d.ForceCompact("ghost"); return err }, "not attached"},
		{"reload invalid period", func() error {
			return d.Reload(Config{TickEvery: -time.Second, MaxWorkloads: 4})
		}, "TickEvery must be positive"},
		{"reload invalid limit", func() error {
			return d.Reload(Config{TickEvery: time.Second, MaxWorkloads: 0})
		}, "MaxWorkloads must be >= 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("command unexpectedly succeeded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}

	// The failed reloads left the original config active and the failed
	// attaches left exactly the original workloads; both still tick.
	clk.StepN(2)
	s, err := d.Status()
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.TickEvery != time.Second || s.Config.MaxWorkloads != 3 {
		t.Fatalf("failed reload mutated the config: %+v", s.Config)
	}
	if len(s.Workloads) != 2 || s.Workloads[0].Name != "kv" || s.Workloads[1].Name != "kv2" {
		t.Fatalf("failed commands disturbed the workload set: %+v", s.Workloads)
	}
	if s.Ticks != 2 || s.Workloads[0].Windows != 2 || s.Workloads[1].Windows != 2 {
		t.Fatalf("daemon stopped ticking after command errors: %+v", s)
	}
}

// TestDaemonCommandHappyPaths covers the success side: α change takes
// effect, forced compaction reports stats, valid reload swaps config and
// raises the attach limit, detach returns a finalized result.
func TestDaemonCommandHappyPaths(t *testing.T) {
	live := obs.NewLive()
	d, clk := newTestDaemon(t, Config{TickEvery: time.Second, MaxWorkloads: 1}, live)
	if err := d.Attach("kv", testSimConfig(t)); err != nil {
		t.Fatal(err)
	}
	clk.StepN(3)
	if err := d.SetAlpha("kv", 0.7); err != nil {
		t.Fatal(err)
	}
	clk.StepN(1)
	if _, err := d.ForceCompact("kv"); err != nil {
		t.Fatal(err)
	}
	// Raising the cap via reload makes a second attach possible.
	if err := d.Attach("kv2", baselineSimConfig(t)); err == nil {
		t.Fatal("attach should fail before the reload raises MaxWorkloads")
	}
	if err := d.Reload(Config{TickEvery: 2 * time.Second, MaxWorkloads: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Attach("kv2", baselineSimConfig(t)); err != nil {
		t.Fatal(err)
	}
	s, err := d.Status()
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.TickEvery != 2*time.Second || s.Config.MaxWorkloads != 2 {
		t.Fatalf("reload did not take: %+v", s.Config)
	}
	res, err := d.Detach("kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 4 || res.Ops != 4*400 {
		t.Fatalf("detached result covers %d windows / %d ops, want 4 / 1600", len(res.Windows), res.Ops)
	}
	if res.ModelName != "AM-TCO" || res.FinalTCO <= 0 {
		t.Fatalf("detached result not finalized: %+v", res)
	}

	// The obs gauges tracked all of it.
	vars := live.Vars().(map[string]any)
	if got := vars["daemon_ticks"].(int64); got != 4 {
		t.Fatalf("daemon_ticks = %d, want 4", got)
	}
	if got := vars["daemon_attached_workloads"].(int64); got != 1 {
		t.Fatalf("daemon_attached_workloads = %d, want 1 after detach", got)
	}
	cmds := vars["daemon_commands"].(map[string]map[string]int64)
	if cmds["attach"]["ok"] != 2 || cmds["attach"]["error"] != 1 {
		t.Fatalf("attach command counts: %+v", cmds["attach"])
	}
	if cmds["set-alpha"]["ok"] != 1 || cmds["reload"]["ok"] != 1 || cmds["detach"]["ok"] != 1 {
		t.Fatalf("command counts: %+v", cmds)
	}
}

// TestDaemonStopped: commands against a stopped daemon fail fast with
// ErrStopped instead of hanging, Stop is idempotent, and a stopped fake
// clock reports undelivered ticks.
func TestDaemonStopped(t *testing.T) {
	d, clk := newTestDaemon(t, DefaultConfig(), nil)
	if err := d.Attach("kv", testSimConfig(t)); err != nil {
		t.Fatal(err)
	}
	d.Stop()
	d.Stop() // idempotent
	if err := d.Attach("late", testSimConfig(t)); err != ErrStopped {
		t.Fatalf("attach after Stop = %v, want ErrStopped", err)
	}
	if _, err := d.Detach("kv"); err != ErrStopped {
		t.Fatalf("detach after Stop = %v, want ErrStopped", err)
	}
	if err := d.Barrier(); err != ErrStopped {
		t.Fatalf("barrier after Stop = %v, want ErrStopped", err)
	}
	if clk.Step() {
		t.Fatal("stopped clock claimed to deliver a tick")
	}
	if got := clk.StepN(3); got != 0 {
		t.Fatalf("stopped clock delivered %d ticks", got)
	}
}

// TestLoadConfig: file parsing over defaults, partial overlays, and the
// rejection paths (bad duration, bad JSON, failing validation, missing
// file).
func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	cfg, err := LoadConfig(write("full.json", `{"tick_every":"250ms","max_workloads":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TickEvery != 250*time.Millisecond || cfg.MaxWorkloads != 3 {
		t.Fatalf("loaded %+v", cfg)
	}

	// Partial file inherits the defaults for absent fields.
	cfg, err = LoadConfig(write("partial.json", `{"max_workloads":5}`))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if cfg.TickEvery != def.TickEvery || cfg.MaxWorkloads != 5 {
		t.Fatalf("partial load %+v, want TickEvery %v", cfg, def.TickEvery)
	}

	for name, body := range map[string]string{
		"bad-duration.json": `{"tick_every":"soon"}`,
		"bad-json.json":     `{"tick_every"`,
		"invalid.json":      `{"max_workloads":-1}`,
	} {
		if _, err := LoadConfig(write(name, body)); err == nil {
			t.Errorf("%s: LoadConfig accepted invalid config", name)
		}
	}
	if _, err := LoadConfig(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("LoadConfig accepted a missing file")
	}

	// Round-trip: the marshaled form loads back identically (the /status
	// endpoint serves Config JSON, which must stay parseable as a config
	// file).
	b, err := cfg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(write("roundtrip.json", string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Fatalf("round-trip %+v != %+v", back, cfg)
	}
}

// TestWallClockTicks: the production clock actually ticks and Reset
// retunes it — the one smoke test wall time gets in this package.
func TestWallClockTicks(t *testing.T) {
	c := NewWallClock(time.Millisecond)
	defer c.Stop()
	select {
	case <-c.Ticks():
	case <-time.After(5 * time.Second):
		t.Fatal("wall clock never ticked")
	}
	c.Reset(time.Millisecond)
	select {
	case <-c.Ticks():
	case <-time.After(5 * time.Second):
		t.Fatal("wall clock never ticked after Reset")
	}
}

// TestDaemonDetachReleasesWorkload: a detached workload's stepper — and
// with it the migration scratch and codec state the stepper owns — must
// be collectable while the daemon lives on. Detaching in attach order
// used to leave the last instance in the vacated tail of the daemon's
// slice, reachable until the daemon stopped.
func TestDaemonDetachReleasesWorkload(t *testing.T) {
	d, clk := newTestDaemon(t, DefaultConfig(), nil)
	const n = 3
	freed := make(chan string, n)
	for i := 0; i < n; i++ {
		cfg := testSimConfig(t)
		name := fmt.Sprintf("kv%d", i)
		// Only the stepper's config refers to the manager once attached.
		runtime.SetFinalizer(cfg.Manager, func(*mem.Manager) { freed <- name })
		if err := d.Attach(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	clk.Step()
	if err := d.Barrier(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := d.Detach(fmt.Sprintf("kv%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d detached workloads were never collected", n-i, n)
		}
	}
}
