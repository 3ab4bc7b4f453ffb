package daemon

import (
	"sync"
	"time"
)

// Clock abstracts the tick source that drives the daemon's control loop.
// Production uses WallClock (a real time.Ticker); tests use FakeClock
// and step the daemon deterministically. Nothing downstream of the tick
// reads the delivered time.Time — the simulation runs entirely on
// modeled virtual time — so the clock choice cannot perturb results;
// it only decides *when* the next window happens, never what it does.
type Clock interface {
	// Ticks delivers the tick stream the daemon selects on.
	Ticks() <-chan time.Time
	// Stop releases the clock. After Stop no further ticks arrive and
	// any blocked FakeClock stepper is unblocked.
	Stop()
}

// WallClock is the production Clock: a real time.Ticker.
type WallClock struct {
	t *time.Ticker
}

// NewWallClock returns a ticking wall clock with the given period.
func NewWallClock(every time.Duration) *WallClock {
	return &WallClock{t: time.NewTicker(every)}
}

// Ticks implements Clock.
func (c *WallClock) Ticks() <-chan time.Time { return c.t.C }

// Stop implements Clock.
func (c *WallClock) Stop() { c.t.Stop() }

// Reset changes the tick period; the daemon calls it when a config
// reload changes TickEvery.
func (c *WallClock) Reset(every time.Duration) { c.t.Reset(every) }

// FakeClock is the deterministic test Clock. Ticks fire only when Step
// is called, over an unbuffered channel: Step returns once the daemon's
// loop has *received* the tick, and because that loop is single-threaded
// a subsequent synchronous command (e.g. Daemon.Barrier) cannot execute
// until the tick's window work has fully completed. Step-then-Barrier is
// therefore a deterministic "run exactly one window" primitive.
//
// Step is meant to be called from one driving goroutine.
type FakeClock struct {
	ch   chan time.Time
	done chan struct{}
	once sync.Once
	now  time.Time
}

// NewFakeClock returns a stopped-time clock; no tick fires until Step.
func NewFakeClock() *FakeClock {
	return &FakeClock{
		ch:   make(chan time.Time), // unbuffered on purpose; see type doc
		done: make(chan struct{}),
		now:  time.Unix(0, 0).UTC(),
	}
}

// Ticks implements Clock.
func (c *FakeClock) Ticks() <-chan time.Time { return c.ch }

// Stop implements Clock: unblocks any in-flight Step and makes future
// Steps return false immediately.
func (c *FakeClock) Stop() { c.once.Do(func() { close(c.done) }) }

// Step delivers one tick, blocking until the daemon receives it (or the
// clock is stopped, in which case it reports false). The fake time
// advances one second per tick purely for display; nothing consumes it.
func (c *FakeClock) Step() bool {
	c.now = c.now.Add(time.Second)
	select {
	case c.ch <- c.now:
		return true
	case <-c.done:
		return false
	}
}
