package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/obs"
	"tierscape/internal/telemetry"
	"tierscape/internal/workload"
)

// Outside-only tracing. Every span here is recorded from bench/: wrappers
// around the three interfaces the simulator takes from its caller
// (workload.Workload, model.Model, obs.Recorder) plus clock readings
// around the calls the driver makes. What the wrappers cannot see — where
// the access loop ends, how apply splits into prepare/commit/stall — is
// reconstructed from the program's own obs.WindowRuntime; README.md lists
// what that lumps together.

// nextOpStride is the 1-in-N sampling of NextOp timings. A time.Now pair
// costs ~50 ns against a ~250 ns KV op, so timing every call would add
// ~20 % to kv_steady; at 1-in-16 the traced run measured 1–13 % slower
// (README.md) and still takes >15 000 samples per 250 000-op window.
const nextOpStride = 16

// accessLogCap bounds the accesses a traced run keeps for the layer
// probes (mem.Access hit path, telemetry.Record).
const accessLogCap = 1 << 20

// span is one traced interval. Start/End are nanoseconds since the
// trace's epoch. Agg marks a duration that is the sum of many short
// intervals inside the parent (sampled NextOp calls, per-worker prepare
// time): it is positioned at the parent's start and only its length means
// anything.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Agg    bool   `json:"agg,omitempty"`
}

// tracer holds the spans of one traced process in memory until exit.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// logAccesses makes the next runs keep their first accessLogCap
	// accesses for the layer probes; one traced round's worth is enough.
	logAccesses bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(parent int, name, key string, start, end time.Time) int {
	return t.put(span{Parent: parent, Name: name, Key: key,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

func (t *tracer) addAgg(parent int, name, key string, at time.Time, durNs float64) int {
	s := int64(at.Sub(t.epoch))
	return t.put(span{Parent: parent, Name: name, Key: key, Start: s, End: s + int64(durNs), Agg: true})
}

func (t *tracer) put(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes a span that was added before its children ran.
func (t *tracer) end(id int, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(at.Sub(t.epoch))
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfNs returns each span's duration minus the part its children cover,
// keyed by span id. Children's lengths are summed, not unioned: spans of
// one parent never overlap here except Agg ones, whose sum is the point.
func selfNs(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// windowTrace is what the wrappers saw of one Step of one simulated
// workload.
type windowTrace struct {
	window                 int
	stepStart, stepEnd     time.Time
	nextOpNs               float64 // scaled from the sampled calls
	ops, accesses          int64
	recommendAt, recommend time.Time // Recommend entry and return
	sinkFirst              time.Time // first recorder callback of the window
	sinkNs                 float64   // inside the real sink's callbacks
	rt                     obs.WindowRuntime
}

// runTrace wraps one simulated workload's three caller-supplied
// interfaces. Its fields are written only on the goroutine that calls
// Step (the driver, or the daemon loop); the driver reads them after Step
// or Barrier has returned.
type runTrace struct {
	tr     *tracer
	name   string
	parent int

	wl   workload.Workload
	mdl  model.Model
	sink obs.Recorder // the program's real recorder; nil on batch runs

	cur        windowTrace
	nextOpRaw  int64 // sampled NextOp nanoseconds, unscaled
	sampled    int64
	pending    []windowTrace
	done       []windowTrace
	accessLog  []workload.Access
	logEnabled bool
}

func (t *tracer) newRun(parent int, name string, wl workload.Workload, mdl model.Model, sink obs.Recorder) *runTrace {
	return &runTrace{tr: t, name: name, parent: parent, wl: wl, mdl: mdl, sink: sink, logEnabled: t.logAccesses}
}

func (r *runTrace) workload() workload.Workload { return tracedWorkload{r.wl, r} }
func (r *runTrace) model() model.Model          { return tracedModel{r.mdl, r} }
func (r *runTrace) recorder() obs.Recorder      { return tracedRecorder{r} }

type tracedWorkload struct {
	workload.Workload
	r *runTrace
}

// NextOp times one call in nextOpStride and counts all of them. The
// stepper passes buf[:0], so len of the result is this op's accesses.
func (w tracedWorkload) NextOp(buf []workload.Access) []workload.Access {
	r := w.r
	r.cur.ops++
	if r.cur.ops%nextOpStride != 0 {
		buf = w.Workload.NextOp(buf)
	} else {
		t0 := time.Now()
		buf = w.Workload.NextOp(buf)
		r.nextOpRaw += int64(time.Since(t0))
		r.sampled++
	}
	r.cur.accesses += int64(len(buf))
	if r.logEnabled && len(r.accessLog) < accessLogCap {
		r.accessLog = append(r.accessLog, buf...)
	}
	return buf
}

type tracedModel struct {
	model.Model
	r *runTrace
}

func (m tracedModel) Recommend(mm *mem.Manager, prof telemetry.Profile) model.Recommendation {
	m.r.cur.recommendAt = time.Now()
	rec := m.Model.Recommend(mm, prof)
	m.r.cur.recommend = time.Now()
	return rec
}

type tracedRecorder struct{ r *runTrace }

func (t tracedRecorder) enter() time.Time {
	now := time.Now()
	if t.r.cur.sinkFirst.IsZero() {
		t.r.cur.sinkFirst = now
	}
	return now
}

func (t tracedRecorder) RecordWindow(w obs.WindowSnapshot) {
	t0 := t.enter()
	if t.r.sink != nil {
		t.r.sink.RecordWindow(w)
		t.r.cur.sinkNs += float64(time.Since(t0))
	}
}

func (t tracedRecorder) RecordMove(ev obs.MoveEvent) {
	t0 := t.enter()
	if t.r.sink != nil {
		t.r.sink.RecordMove(ev)
		t.r.cur.sinkNs += float64(time.Since(t0))
	}
}

// RecordRuntime is the stepper's last call in a window: it closes the
// window's accumulators.
func (t tracedRecorder) RecordRuntime(rt obs.WindowRuntime) {
	t0 := t.enter()
	r := t.r
	if r.sink != nil {
		r.sink.RecordRuntime(rt)
		r.cur.sinkNs += float64(time.Since(t0))
	}
	r.cur.rt = rt
	r.cur.window = rt.Window
	if r.sampled > 0 {
		r.cur.nextOpNs = float64(r.nextOpRaw) / float64(r.sampled) * float64(r.cur.ops)
	}
	r.cur.stepEnd = time.Now()
	r.pending = append(r.pending, r.cur)
	r.cur = windowTrace{}
	r.nextOpRaw, r.sampled = 0, 0
}

// endStep gives the oldest pending window its step boundaries and emits
// its spans. start is when the driver called Step (batch) or when the
// previous tenant's step ended (daemon); a zero end keeps the time the
// stepper made its last recorder call.
func (r *runTrace) endStep(start, end time.Time) (windowTrace, error) {
	if len(r.pending) == 0 {
		return windowTrace{}, fmt.Errorf("trace: %s: step ended without a recorded window", r.name)
	}
	w := r.pending[0]
	r.pending = r.pending[1:]
	w.stepStart = start
	if !end.IsZero() {
		w.stepEnd = end
	}
	r.emit(w)
	r.done = append(r.done, w)
	return w, nil
}

// accessEnd is where the access loop handed over to the control loop:
// the model is called right after the profile phase, so the loop ended
// one profile phase before Recommend was entered.
func (w *windowTrace) accessEnd() time.Time {
	return w.recommendAt.Add(-time.Duration(w.rt.PhaseWallNs[obs.PhaseProfile]))
}

func (r *runTrace) emit(w windowTrace) {
	t := r.tr
	key := fmt.Sprintf("%s/%d", r.name, w.window)
	step := t.add(r.parent, "sim.step", key, w.stepStart, w.stepEnd)
	cursor := w.accessEnd()
	access := t.add(step, "sim.access_loop", key, w.stepStart, cursor)
	t.addAgg(access, "workload.next_op", key, w.stepStart, w.nextOpNs)
	for p := 0; p < obs.NumPhases; p++ {
		d := time.Duration(w.rt.PhaseWallNs[p])
		id := t.add(step, "sim.phase."+obs.Phase(p).String(), key, cursor, cursor.Add(d))
		switch obs.Phase(p) {
		case obs.PhaseSolve:
			t.add(id, "model.recommend", key, w.recommendAt, w.recommend)
		case obs.PhaseApply:
			t.addAgg(id, "sim.apply.prepare", key, cursor, w.rt.PrepareWallNs)
			t.addAgg(id, "sim.apply.commit", key, cursor, w.rt.CommitWallNs)
			t.addAgg(id, "sim.apply.stall", key, cursor, float64(w.rt.Sched.StallNs))
		}
		cursor = cursor.Add(d)
	}
	rec := t.add(step, "obs.record", key, w.sinkFirst, w.stepEnd)
	if r.sink != nil {
		t.addAgg(rec, "obs.sink", key, w.sinkFirst, w.sinkNs)
	}
}
