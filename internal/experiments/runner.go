package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/sim"
	"tierscape/internal/workload"
)

// This file is the experiment run engine: every figure harness submits its
// sim.Run configurations as runJobs and the engine fans them out across a
// worker pool. Runs are embarrassingly parallel — each owns a fresh
// manager, workload and profiler, and is seeded purely from its Scale — so
// scheduling order cannot influence any result: the tables a harness emits
// are byte-identical at every GOMAXPROCS, which sizes the pool.

// Parallelism reports RunSet's worker count: GOMAXPROCS, read when a set
// starts.
func Parallelism() int { return runtime.GOMAXPROCS(0) }

// deprecatedLive is SetLive's aggregator, which runJobs reads only for a
// Scale that carries no Live.
var deprecatedLive atomic.Pointer[obs.Live]

// SetLive attaches l to every subsequently started run whose Scale has no
// Live (nil detaches).
//
// Deprecated: set Scale.Live.
func SetLive(l *obs.Live) { deprecatedLive.Store(l) }

// modelName labels a job's model for event-stream annotations.
func modelName(mdl model.Model) string {
	if mdl == nil {
		return "baseline"
	}
	return mdl.Name()
}

// RunSet executes n independent jobs across Parallelism() workers and
// blocks until all complete. Jobs are dispatched by index; every job runs
// exactly once even when some fail. The returned error is deterministic
// regardless of scheduling: the lowest-index job error, exactly what a
// serial for-loop that collected all errors would report first.
func RunSet(n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// runJob is one simulation run submitted to the engine. The zero values
// pick the common defaults: the standard mix, a nil model (all-DRAM
// baseline) and the set-wide Scale.
//
// Each job must hold its OWN model instance — an Analytical keeps its
// option arena and solver state (and, when compressibility-aware, its
// probe cache) across windows, so sharing one across concurrent jobs would
// race. Harnesses construct models per job, never per set.
type runJob struct {
	spec  WorkloadSpec
	mdl   model.Model
	tiers lineup
	// cfg optionally mutates the sim.Config, manager included, before the
	// run (filter settings, prefetch thresholds, telemetry source, ...).
	cfg func(*sim.Config)
	// scale overrides the set-wide Scale for this job (window ablations).
	scale *Scale
}

// effectiveScale is the Scale the job runs at: its own override, or the
// set's, carrying the set's shared-input table either way.
func (j runJob) effectiveScale(s Scale) Scale {
	if j.scale == nil {
		return s
	}
	js := *j.scale
	js.inputs = s.inputs
	return js
}

// newWorkload returns the workload the job steps and the one its manager
// is built from. For a stream the figure recorded they differ: the job
// steps a replay, and the manager is built from the recording's source,
// the concrete workload (a Colocated builds a composite content source,
// which a replay cannot). Otherwise both are one fresh workload, generated
// live. WorkloadSpec.New has no error to return, so a failed shared-input
// build (Scale.rmat) arrives as a panic carrying the table's recorded
// error; every job that needs the input fails on that same error, and
// RunSet reports the lowest-index one.
func (j runJob) newWorkload(s Scale) (steps, source workload.Workload, err error) {
	rec, err := s.inputs.stream(j.spec, s)
	if err != nil {
		return nil, nil, err
	}
	if rec != nil {
		steps, err := rec.replay()
		return steps, rec.src, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: building workload %s: %v", j.spec.Name, r)
		}
	}()
	wl := j.spec.New(s)
	return wl, wl, nil
}

// run executes the job serially; the engine calls it from a worker. s
// carries the set's shared-input table. rec is the engine-provided
// Recorder (live aggregator and/or event stream; nil when observability
// is off); j.cfg may still override it.
func (j runJob) run(s Scale, rec obs.Recorder) (*sim.Result, error) {
	s = j.effectiveScale(s)
	wl, src, err := j.newWorkload(s)
	if err != nil {
		return nil, err
	}
	m, err := j.tiers.manager(src, s.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: building manager for %s: %w", j.spec.Name, err)
	}
	m.ShareStores(s.inputs.memo)
	cfg := sim.Config{
		Manager:      m,
		Workload:     wl,
		Model:        j.mdl,
		OpsPerWindow: s.OpsPerWindow,
		Windows:      s.Windows,
		SampleRate:   s.SampleRate,
		Recorder:     rec,
	}
	if j.cfg != nil {
		j.cfg(&cfg)
	}
	return sim.Run(cfg)
}

// runJobs fans jobs across the worker pool and returns their results in
// job order. On error the whole set is discarded (remaining jobs still ran
// to completion) and the lowest-index error is returned. When s.Events is
// set, each job streams into a private buffer and the buffers are written
// to it in job-index order after the set completes — deterministic bytes
// regardless of worker scheduling.
func runJobs(s Scale, jobs []runJob) ([]*sim.Result, error) {
	lp := s.Live
	if lp == nil {
		lp = deprecatedLive.Load()
	}
	// Rebind the typed pointer as an interface only when non-nil: a nil
	// *obs.Live stored in a non-nil Recorder interface would defeat the
	// nil checks in obs.Tee and below.
	var l obs.Recorder
	if lp != nil {
		l = lp
	}
	var bufs []bytes.Buffer
	var streams []*obs.Stream
	if s.Events != nil {
		bufs = make([]bytes.Buffer, len(jobs))
		streams = make([]*obs.Stream, len(jobs))
		for i := range jobs {
			streams[i] = obs.NewStream(&bufs[i])
		}
	}
	results := make([]*sim.Result, len(jobs))
	s.inputs = newInputs() // this figure's; unreachable once the set returns
	// The pool's first tasks build the set's distinct shared inputs, one
	// per worker, instead of leaving each to the first job that needs it:
	// jobs over one graph or stream are adjacent, so the whole pool would
	// reach it together and park behind a single builder. Graphs go first,
	// since a graph workload's stream needs its graph. A failed build stays
	// in the table for the jobs to report.
	builds := jobGraphs(s, jobs)
	recorded, err := s.inputs.planStreams(s, jobs)
	if err != nil {
		return nil, err
	}
	pre := len(builds) + len(recorded)
	err = RunSet(pre+len(jobs), func(i int) error {
		switch {
		case i < len(builds):
			_, _ = s.inputs.graph(builds[i])
			return nil
		case i < pre:
			j := recorded[i-len(builds)]
			_, _ = s.inputs.stream(j.spec, j.effectiveScale(s))
			return nil
		}
		i -= pre
		var rec obs.Recorder
		if streams != nil {
			streams[i].Annotate(fmt.Sprintf("job=%d workload=%s model=%s",
				i, jobs[i].spec.Name, modelName(jobs[i].mdl)))
			rec = obs.Tee(l, streams[i])
		} else if l != nil {
			rec = l
		}
		res, err := jobs[i].run(s, rec)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if lp != nil {
		st := s.inputs.memo.Stats()
		lp.AddStoreMemo(st.Lookups, st.Hits, st.Bytes)
	}
	if err != nil {
		return nil, err
	}
	for i := range streams {
		if err := streams[i].Err(); err != nil {
			return nil, fmt.Errorf("experiments: event stream for job %d: %w", i, err)
		}
		if _, err := s.Events.Write(bufs[i].Bytes()); err != nil {
			return nil, fmt.Errorf("experiments: flushing events for job %d: %w", i, err)
		}
	}
	return results, nil
}

// runOne executes one job as a set of its own.
func runOne(s Scale, j runJob) (*sim.Result, error) {
	results, err := runJobs(s, []runJob{j})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}
