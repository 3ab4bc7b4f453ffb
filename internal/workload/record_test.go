package workload

import (
	"slices"
	"testing"
)

// TestRecordBudget: a reserve that refuses part-way through a stream gets
// back every byte it granted and the caller gets no recording; one that
// grants exactly what a stream needs gets the whole stream.
func TestRecordBudget(t *testing.T) {
	const ops = 5000
	mk := func() Workload { return Redis(4096, 3) }
	var need int64
	r := Record(mk(), ops, func(n int64) bool { need += n; return true })
	if r == nil || len(r.ends) != ops {
		t.Fatalf("no recording of %d ops", ops)
	}
	if r.bases != nil {
		t.Errorf("a constant BaseOpNs was kept per op")
	}
	for _, budget := range []int64{0, 4 * ops, need / 2, need - 1} {
		left := budget
		refused := Record(mk(), ops, func(n int64) bool {
			if n > left {
				return false
			}
			left -= n
			return true
		})
		if refused != nil || left != budget {
			t.Errorf("budget %d of %d: recording %v, %d bytes left, want none and all %d back",
				budget, need, refused != nil, left, budget)
		}
	}
	left := need
	if Record(mk(), ops, func(n int64) bool { left -= n; return left >= 0 }) == nil || left != 0 {
		t.Errorf("an exact budget of %d bytes: refused, or %d left", need, left)
	}

	// The replay is the live stream, op for op, and then empty ops.
	live, replay := mk(), r.Replay()
	var want, got []Access
	for i := 0; i < ops; i++ {
		want = live.NextOp(want[:0])
		got = replay.NextOp(got[:0])
		if !slices.Equal(got, want) || replay.BaseOpNs() != live.BaseOpNs() {
			t.Fatalf("op %d: replay %v (base %v), live %v (base %v)", i, got, replay.BaseOpNs(), want, live.BaseOpNs())
		}
	}
	if got = replay.NextOp(got[:0]); len(got) != 0 {
		t.Errorf("op past the recording: %v, want none", got)
	}
}

// TestRecordRefusesWideWorkloads: a workload of more pages than an access
// can encode is refused before anything is reserved or stepped, so its
// jobs generate live.
func TestRecordRefusesWideWorkloads(t *testing.T) {
	var asked int64
	src := &countOps{Workload: Redis(2*recordPages, 3)}
	if r := Record(src, 100, func(n int64) bool { asked += n; return true }); r != nil || asked != 0 || src.ops != 0 {
		t.Errorf("recorded %v after reserving %d bytes and stepping %d ops; want no recording, nothing reserved or stepped",
			r != nil, asked, src.ops)
	}
}

// countOps counts the ops drawn from a workload.
type countOps struct {
	Workload
	ops int
}

func (c *countOps) NextOp(buf []Access) []Access {
	c.ops++
	return c.Workload.NextOp(buf)
}

// TestRecordRefusesOutOfRangePages: a page outside the workload's own
// range would not survive the encoding, so Record declines the
// stream and returns every byte instead of storing a wrong page.
func TestRecordRefusesOutOfRangePages(t *testing.T) {
	var granted int64
	r := Record(offsetPages{Redis(4096, 3)}, 100, func(n int64) bool { granted += n; return true })
	if r != nil || granted != 0 {
		t.Errorf("recorded %v, %d bytes kept; want no recording and none", r != nil, granted)
	}
}

// offsetPages moves every access one workload's worth past its pages.
type offsetPages struct{ Workload }

func (o offsetPages) NextOp(buf []Access) []Access {
	start := len(buf)
	buf = o.Workload.NextOp(buf)
	for i := start; i < len(buf); i++ {
		buf[i].Page += 1 << 15
	}
	return buf
}
