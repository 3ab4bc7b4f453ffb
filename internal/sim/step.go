// Stepper: the TS-Daemon control loop, one profile window at a time.
//
// Run (sim.go) is the batch entry point — N windows, then a Result — but
// the loop body itself lives here, factored so a resident controller
// (internal/daemon) can drive the identical profile→solve→migrate→compact
// cycle from a ticker instead of a for-loop. The extraction is the
// daemon's determinism argument in miniature: Run(cfg) with Windows=K is
// NewStepper(cfg) followed by exactly K Step() calls and a Result(), so
// any driver that performs that same call sequence — batch loop, ticker,
// test harness — produces byte-identical snapshots, move events and
// aggregates, at every GOMAXPROCS.
//
// A step has two halves, split where the loop body already had a seam.
// StepAccess is the window's OpsPerWindow operations: it touches only
// state the stepper owns (workload, profiler, manager, accumulators) and
// calls no recorder, so a driver with several steppers may run their
// access halves at once, each on its own goroutine. StepControl is the
// window boundary — profile → solve → plan → apply → compact → snapshot
// → recorder calls — and is where a shared recorder sees the stepper, so
// a driver runs those one at a time in a fixed order. Step is the two in
// sequence; there is no other loop body.
package sim

import (
	"errors"
	"fmt"
	"time"

	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/policy"
	"tierscape/internal/stats"
	"tierscape/internal/tco"
	"tierscape/internal/telemetry"
	"tierscape/internal/workload"
)

// pushThreads is how many goroutines apply each window's migration plan
// (the artifact's PT parameter, at its PT2 setting). It is fixed rather
// than GOMAXPROCS: runs already run side by side — one per core in the
// experiment runner, one per tenant in the daemon — and each push thread
// keeps a scratch (codec state and page buffers) for its stepper's whole
// life. Results are byte-identical at every thread count (apply.go), so
// the count changes only wall-clock time.
const pushThreads = 2

// interference is the fraction of daemon work that steals application
// time: cache and bandwidth contention from the push threads.
const interference = 0.02

// Stepper executes the TS-Daemon control loop one profile window per
// Step call. It holds everything Run's window loop used to keep in
// locals — profiler, migration filter, accumulators, scratch buffers —
// so stepping can be suspended and resumed indefinitely (the resident
// daemon ticks steppers for as long as their workloads stay attached).
//
// A Stepper is single-threaded: the step calls, Result and the accessors
// must not be called concurrently. The two halves of one step may run on
// different goroutines as long as the driver orders them (StepAccess
// returns before StepControl starts — a channel send, a WaitGroup).
// Config.Windows is ignored — the driver decides how many windows happen.
type Stepper struct {
	cfg Config

	m      *mem.Manager
	wl     workload.Workload
	prof   telemetry.Recorder
	filter *policy.Filter
	recd   obs.Recorder

	res          *Result
	buf          []workload.Access
	regionFaults map[mem.RegionID]int
	// scratch is one migration scratch per push thread, kept for the
	// stepper's whole life so page buffers and codec state are built once
	// per run, by the thread that first needs them, and die with the run.
	// The access loop (faults, prefetches) runs between applies on the
	// driver's thread and borrows scratch[0].
	scratch []mem.MigrationScratch

	// Per-window observability accumulators (pressure.go): latency
	// histograms and fault-stall time by serving tier, plus the thrash
	// detector's per-region direction memory and fixed-point scores.
	latTier   []stats.LogHist
	tierStall []float64
	lastDir   map[mem.RegionID]int8
	thrash    map[mem.RegionID]int64

	weightedTCO      float64
	totalAppNs       float64
	lastProfOverhead float64
	window           int

	// The open window: which half comes next, and what the access half
	// hands to the control half.
	state      stepState
	appNs      float64
	prefetchNs float64
}

// stepState is where a stepper stands in its access → control cycle.
type stepState uint8

const (
	stepReady    stepState = iota // between windows: StepAccess is next
	stepAccessed                  // access half done: StepControl is next
	stepFailed                    // a half returned an error or panicked
)

// begin admits one half of a step. The stepper is marked failed until the
// half completes, so an error return — or a panic the driver recovers —
// leaves it refusing every later call instead of double-counting a
// half-run window. A call out of order is refused and changes nothing.
func (s *Stepper) begin(call string, want stepState) error {
	switch {
	case s.state == want:
		s.state = stepFailed
		return nil
	case s.state == stepFailed:
		return fmt.Errorf("sim: %s on a stepper that failed in window %d", call, s.window)
	case want == stepAccessed:
		return fmt.Errorf("sim: %s without a preceding StepAccess (window %d)", call, s.window)
	default:
		return fmt.Errorf("sim: %s twice in a row: window %d awaits StepControl", call, s.window)
	}
}

// NewStepper validates cfg and builds a stepper positioned before the
// first window. All of Config is honored except Windows, which belongs
// to the batch driver (Run); a stepper runs as many windows as Step is
// called.
func NewStepper(cfg Config) (*Stepper, error) {
	if cfg.Manager == nil || cfg.Workload == nil {
		return nil, errors.New("sim: Manager and Workload are required")
	}
	if cfg.OpsPerWindow <= 0 {
		return nil, fmt.Errorf("sim: OpsPerWindow (%d) must be positive", cfg.OpsPerWindow)
	}
	if cfg.Workload.NumPages() > cfg.Manager.NumPages() {
		return nil, fmt.Errorf("sim: workload needs %d pages but manager has %d",
			cfg.Workload.NumPages(), cfg.Manager.NumPages())
	}
	if cfg.SampleRate < 0 {
		return nil, fmt.Errorf("sim: SampleRate must be >= 0, got %d", cfg.SampleRate)
	}
	if cfg.CompactBudget < 0 {
		return nil, fmt.Errorf("sim: CompactBudget must be >= 0, got %d", cfg.CompactBudget)
	}
	s := &Stepper{cfg: cfg}

	var err error
	if cfg.AccessBitTelemetry {
		s.prof, err = telemetry.NewABitScanner(cfg.Manager.NumPages(), cfg.Manager.NumRegions())
	} else {
		s.prof, err = telemetry.NewProfiler(telemetry.Config{
			NumRegions: cfg.Manager.NumRegions(),
			SampleRate: cfg.SampleRate,
		})
	}
	if err != nil {
		return nil, err
	}
	fcfg := policy.DefaultConfig()
	if cfg.FilterConfig != nil {
		fcfg = *cfg.FilterConfig
	}
	s.filter = policy.NewFilter(fcfg)

	s.m = cfg.Manager
	s.wl = cfg.Workload
	s.recd = cfg.Recorder
	s.regionFaults = make(map[mem.RegionID]int)
	s.scratch = make([]mem.MigrationScratch, pushThreads)
	numTiers := len(cfg.Manager.Tiers())
	s.latTier = make([]stats.LogHist, numTiers)
	s.tierStall = make([]float64, numTiers)
	s.lastDir = make(map[mem.RegionID]int8)
	s.thrash = make(map[mem.RegionID]int64)
	s.res = &Result{
		WorkloadName: cfg.Workload.Name(),
		ModelName:    "baseline",
		OpLat:        stats.NewSummary(),
		TCOMax:       tco.Max(cfg.Manager),
	}
	if cfg.Model != nil {
		s.res.ModelName = cfg.Model.Name()
	}
	return s, nil
}

// Windows returns how many windows have been stepped so far.
func (s *Stepper) Windows() int { return s.window }

// Manager returns the tiered memory manager the stepper drives —
// exposed for runtime commands (forced compaction) that act between
// windows on the driver's thread.
func (s *Stepper) Manager() *mem.Manager { return s.m }

// Model returns the configured placement model (nil for baseline runs) —
// exposed for runtime commands (α changes) between windows.
func (s *Stepper) Model() model.Model { return s.cfg.Model }

// Workload returns the access source the stepper consumes — exposed so
// a driver can inspect streaming sources (e.g. a trace.Reader's exhaustion).
func (s *Stepper) Workload() workload.Workload { return s.wl }

// Result finalizes and returns the run summary over the windows stepped
// so far. It is cheap, idempotent, and callable between steps: aggregates
// (AvgTCO, FinalTCO, Faults) are recomputed from the accumulators each
// call, so stepping may continue afterwards. The returned value is the
// stepper's own Result — treat it as read-only while stepping continues.
func (s *Stepper) Result() *Result {
	if s.totalAppNs > 0 {
		s.res.AvgTCO = s.weightedTCO / s.totalAppNs
	}
	s.res.FinalTCO = tco.Current(s.m)
	s.res.Faults = s.m.Counters().Faults
	return s.res
}

// Step runs one profile window: the access half, then the control half.
// After an error the stepper refuses further steps; the partial Result
// remains valid.
func (s *Stepper) Step() error {
	if err := s.StepAccess(); err != nil {
		return err
	}
	return s.StepControl()
}

// StepAccess runs the window's OpsPerWindow workload operations: NextOp →
// telemetry → mem.Access → OpLat, plus fault-triggered prefetches. It
// reads and writes only what the stepper owns and calls no recorder, so
// it may run on any goroutine, beside other steppers' access halves.
// StepControl must follow before the next StepAccess.
func (s *Stepper) StepAccess() error {
	if err := s.begin("StepAccess", stepReady); err != nil {
		return err
	}
	w := s.window
	cfg := &s.cfg
	m, wl := s.m, s.wl
	res := s.res

	var appNs float64
	var prefetchNs float64
	clear(s.regionFaults)
	sc := &s.scratch[0]
	for op := 0; op < cfg.OpsPerWindow; op++ {
		s.buf = wl.NextOp(s.buf[:0])
		opNs := wl.BaseOpNs()
		for _, a := range s.buf {
			s.prof.Record(a.Page)
			ar, err := m.AccessScratch(a.Page, a.Write, sc)
			if err != nil {
				return fmt.Errorf("sim: window %d op %d: %w", w, op, err)
			}
			opNs += ar.LatencyNs
			s.observeAccess(ar)
			if ar.Fault && cfg.PrefetchFaultThreshold > 0 {
				r := a.Page.Region()
				s.regionFaults[r]++
				if s.regionFaults[r] == cfg.PrefetchFaultThreshold {
					// Prefetch: the daemon decompresses the rest of the
					// region ahead of the application's accesses, on the
					// apply engine like any planned move.
					out, err := applyMoves(m, []policy.Move{{Region: r, Dest: mem.DRAMTier}}, s.scratch, 1, nil)
					if err != nil {
						return fmt.Errorf("sim: prefetch window %d: %w", w, err)
					}
					mr := out[0]
					prefetchNs += mr.LatencyNs
					res.Prefetches++
					if mr.Moved > 0 {
						// A bulk prefetch is a promotion: remember the
						// direction so a prompt demotion registers as
						// ping-pong.
						s.lastDir[r] = 1
					}
				}
			}
		}
		res.OpLat.Add(opNs)
		appNs += opNs
	}
	res.Ops += int64(cfg.OpsPerWindow)
	s.appNs, s.prefetchNs = appNs, prefetchNs
	s.state = stepAccessed
	return nil
}

// StepControl closes the window StepAccess opened: the window-boundary
// control loop (profile → solve → plan → apply → compact), the window's
// snapshot appended to the result, and the observability events, exactly
// as Run emits them. Every recorder call of the step happens here.
func (s *Stepper) StepControl() error {
	if err := s.begin("StepControl", stepAccessed); err != nil {
		return err
	}
	w := s.window
	cfg := &s.cfg
	m, recd := s.m, s.recd
	res := s.res
	appNs, prefetchNs := s.appNs, s.prefetchNs

	// The span trace clocks each control-loop phase only when a
	// recorder is present; wall time is never read otherwise and never
	// feeds back into modeled results either way.
	var rt obs.WindowRuntime
	var wall time.Time
	if recd != nil {
		rt.Window = w + 1
		wall = time.Now()
	}
	profile := s.prof.EndWindow()
	rec := WindowRecord{Window: w + 1}
	var tr *applyTrace
	var plan policy.Plan
	var applied []moveOutcome
	var interferenceNs float64
	s.decayThrash()
	// The profile phase closes right where Recommend is entered, so the
	// phases tile the control loop: a span trace that ends the access loop
	// one profile phase before that entry counts no interval twice.
	if recd != nil {
		rt.PhaseWallNs[obs.PhaseProfile] = wallSince(&wall)
	}

	if cfg.Model != nil {
		r := cfg.Model.Recommend(m, profile)
		if recd != nil {
			rt.PhaseWallNs[obs.PhaseSolve] = wallSince(&wall)
		}
		plan = s.filter.Apply(m, r, profile)
		if recd != nil {
			rt.PhaseWallNs[obs.PhasePlan] = wallSince(&wall)
			tr = &applyTrace{}
		}
		// Real push threads: one goroutine per scratch applies the plan
		// span by span; the spans commit in plan order into their move's
		// outcome (apply.go), so the sums below are identical at every
		// thread count.
		var err error
		if applied, err = applyMoves(m, plan.Moves, s.scratch, len(s.scratch), tr); err != nil {
			return fmt.Errorf("sim: window %d migration: %w", w, err)
		}
		if recd != nil {
			rt.PhaseWallNs[obs.PhaseApply] = wallSince(&wall)
		}
		var migNs float64
		for _, mr := range applied {
			migNs += mr.LatencyNs
			rec.Moves += mr.Moved
			rec.Rejected += mr.Rejected
			rec.Skipped += mr.Skipped
			if mr.Full {
				rec.TierFullMoves++
			}
		}
		rec.MigrateNs = migNs
		rec.Migrations = migrationFlows(plan.Moves, applied)
		s.noteMoves(&rec, plan.Moves, applied)
		rec.DroppedPressure = plan.DroppedPressure
		rec.DroppedCapacity = plan.DroppedCapacity
		rec.DroppedBudget = plan.DroppedBudget
		// Post-migration pool compaction (zs_compact): churned tiers
		// return empty zspages, up to the configured per-window budget.
		compacted := m.CompactBudgeted(s.cfg.CompactBudget)
		if recd != nil {
			rt.PhaseWallNs[obs.PhaseCompact] = wallSince(&wall)
		}
		rec.CompactedPages = compacted.PagesReclaimed
		rec.CompactObjectsMoved = compacted.ObjectsMoved
		rec.CompactSkippedTiers = compacted.SkippedTiers
		rec.CompactNs = compacted.CostNs
		migNs += compacted.CostNs

		profDelta := s.prof.OverheadNs() - s.lastProfOverhead
		s.lastProfOverhead = s.prof.OverheadNs()
		rec.SolverNs = r.SolverNs
		rec.SolverFallbacks = r.Solve.Fallbacks
		rec.SolverLPGap = r.Solve.LPGap
		rec.ProfileNs = profDelta
		rec.PrefetchNs = prefetchNs
		rec.DaemonNs = r.SolverNs + migNs + profDelta + prefetchNs
		// The interference charge follows the measured apply work: cache
		// and bandwidth contention scale with the bytes the push threads
		// move, not with how many threads move them, so the charge is
		// push-thread-invariant (part of the determinism contract).
		elapsed := r.SolverNs + profDelta + migNs + prefetchNs
		interferenceNs = elapsed * interference
		appNs += interferenceNs
		rec.RecommendedPages = recommendedPages(m, r)
	} else {
		// Baseline still pays the (tiny) profiling tax if one imagines
		// telemetry running; the paper's baseline has none, so charge 0.
		s.lastProfOverhead = s.prof.OverheadNs()
		rec.PrefetchNs = prefetchNs
		rec.DaemonNs = prefetchNs
		interferenceNs = prefetchNs * interference
		appNs += interferenceNs
	}

	rec.AppNs = appNs
	s.fillWindowObs(&rec, interferenceNs)
	rec.TCO = tco.Current(m)
	tt := m.TierTelemetry()
	rec.TierPages = tt.Pages
	rec.TierBytes = tt.Bytes
	rec.TierRatio = tt.Ratio
	rec.TierFrag = tt.Frag
	rec.Faults = m.Counters().Faults
	res.Windows = append(res.Windows, rec)

	res.AppNs += appNs
	res.DaemonNs += rec.DaemonNs
	s.weightedTCO += rec.TCO * appNs
	s.totalAppNs += appNs

	if recd != nil {
		// Event i is read off (plan.Moves[i], applied[i]): the results are
		// indexed by job and identical at every thread count, so the
		// stream is too.
		for i, mv := range plan.Moves {
			recd.RecordMove(moveEvent(w+1, i, mv, applied[i]))
		}
		if tr != nil {
			rt.PrepareWallNs = float64(tr.prepareNs.Load())
			rt.CommitWallNs = float64(tr.commitNs.Load())
			rt.Sched = tr.sched
		}
		recd.RecordWindow(rec)
		recd.RecordRuntime(rt)
	}
	s.window++
	s.state = stepReady
	return nil
}
