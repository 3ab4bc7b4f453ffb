package obs

import (
	"fmt"
	"io"
	"slices"
	"strconv"
)

// CSV renders window snapshots as CSV, one row per window, following the
// figure harnesses' column conventions (header row, %g floats, per-tier
// column groups suffixed by TierID). It is a derivation of the JSONL event
// stream (tracetool -csv), not a Recorder: a run records its windows once,
// in the stream.
//
// The header is derived from the first snapshot's tier count, and a CSV has
// one header, so it holds one tier lineup: Write refuses a snapshot of
// another.
type CSV struct {
	w     io.Writer
	tiers int
	cols  []csvColumn // set, and the header written, by the first snapshot
}

// NewCSV returns a CSV writing to w.
func NewCSV(w io.Writer) *CSV { return &CSV{w: w} }

// csvColumn is one column: its header name and its value, an integer or —
// printed %g — a float.
type csvColumn struct {
	name string
	i    func(*WindowSnapshot) int64
	f    func(*WindowSnapshot) float64
}

// csvColumns are the per-window columns, in order; tierColumns' follow, one
// group per tier.
var csvColumns = []csvColumn{
	{name: "window", i: func(w *WindowSnapshot) int64 { return int64(w.Window) }},
	{name: "app_ns", f: func(w *WindowSnapshot) float64 { return w.AppNs }},
	{name: "daemon_ns", f: func(w *WindowSnapshot) float64 { return w.DaemonNs }},
	{name: "solver_ns", f: func(w *WindowSnapshot) float64 { return w.SolverNs }},
	{name: "migrate_ns", f: func(w *WindowSnapshot) float64 { return w.MigrateNs }},
	{name: "compact_ns", f: func(w *WindowSnapshot) float64 { return w.CompactNs }},
	{name: "profile_ns", f: func(w *WindowSnapshot) float64 { return w.ProfileNs }},
	{name: "prefetch_ns", f: func(w *WindowSnapshot) float64 { return w.PrefetchNs }},
	{name: "tco", f: func(w *WindowSnapshot) float64 { return w.TCO }},
	{name: "faults", i: func(w *WindowSnapshot) int64 { return w.Faults }},
	{name: "moves", i: func(w *WindowSnapshot) int64 { return int64(w.Moves) }},
	{name: "rejected", i: func(w *WindowSnapshot) int64 { return int64(w.Rejected) }},
	{name: "skipped", i: func(w *WindowSnapshot) int64 { return int64(w.Skipped) }},
	{name: "tier_full_moves", i: func(w *WindowSnapshot) int64 { return int64(w.TierFullMoves) }},
	{name: "compacted_pages", i: func(w *WindowSnapshot) int64 { return int64(w.CompactedPages) }},
	{name: "compact_objects_moved", i: func(w *WindowSnapshot) int64 { return int64(w.CompactObjectsMoved) }},
	{name: "compact_skipped_tiers", i: func(w *WindowSnapshot) int64 { return int64(w.CompactSkippedTiers) }},
	{name: "dropped_pressure", i: func(w *WindowSnapshot) int64 { return int64(w.DroppedPressure) }},
	{name: "dropped_capacity", i: func(w *WindowSnapshot) int64 { return int64(w.DroppedCapacity) }},
	{name: "dropped_budget", i: func(w *WindowSnapshot) int64 { return int64(w.DroppedBudget) }},
	{name: "pressure", f: func(w *WindowSnapshot) float64 { return w.Pressure }},
	{name: "fault_stall_ns", f: func(w *WindowSnapshot) float64 { return w.FaultStallNs }},
	{name: "interference_ns", f: func(w *WindowSnapshot) float64 { return w.InterferenceNs }},
	{name: "lat_p50_ns", f: func(w *WindowSnapshot) float64 { return w.Latency.P50Ns }},
	{name: "lat_p95_ns", f: func(w *WindowSnapshot) float64 { return w.Latency.P95Ns }},
	{name: "lat_p99_ns", f: func(w *WindowSnapshot) float64 { return w.Latency.P99Ns }},
	{name: "lat_p999_ns", f: func(w *WindowSnapshot) float64 { return w.Latency.P999Ns }},
	{name: "pingpong_moves", i: func(w *WindowSnapshot) int64 { return int64(w.PingPongMoves) }},
	{name: "thrash_regions", i: func(w *WindowSnapshot) int64 { return int64(w.ThrashRegions) }},
	{name: "thrash_score", f: func(w *WindowSnapshot) float64 { return w.ThrashScore }},
	{name: "migrated_bytes", i: func(w *WindowSnapshot) int64 { return w.MigratedBytes }},
	{name: "storm_bytes_per_sec", f: func(w *WindowSnapshot) float64 { return w.StormBytesPerSec }},
}

func tierColumns(t int) []csvColumn {
	tier := "tier" + strconv.Itoa(t) + "_"
	return []csvColumn{
		{name: tier + "pages", i: func(w *WindowSnapshot) int64 { return w.TierPages[t] }},
		{name: tier + "bytes", i: func(w *WindowSnapshot) int64 { return w.TierBytes[t] }},
		{name: tier + "ratio", f: func(w *WindowSnapshot) float64 { return w.TierRatio[t] }},
		{name: tier + "frag", f: func(w *WindowSnapshot) float64 { return w.TierFrag[t] }},
	}
}

// Write writes ws's row, after the header if ws is the first snapshot.
func (c *CSV) Write(ws *WindowSnapshot) error {
	var b []byte
	if c.cols == nil {
		c.tiers = len(ws.TierPages)
		c.cols = slices.Clone(csvColumns)
		for t := range c.tiers {
			c.cols = append(c.cols, tierColumns(t)...)
		}
		for _, col := range c.cols {
			b = append(append(b, col.name...), ',')
		}
		b[len(b)-1] = '\n'
	}
	for _, n := range []int{len(ws.TierPages), len(ws.TierBytes), len(ws.TierRatio), len(ws.TierFrag)} {
		if n != c.tiers {
			return fmt.Errorf("window %d has %d tiers, the CSV header has %d", ws.Window, n, c.tiers)
		}
	}
	for _, col := range c.cols {
		if col.i != nil {
			b = appendValue(b, col.i(ws))
		} else {
			b = appendValue(b, col.f(ws))
		}
		b = append(b, ',')
	}
	b[len(b)-1] = '\n'
	_, err := c.w.Write(b)
	return err
}
