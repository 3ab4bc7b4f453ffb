package workload

import (
	"math"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
)

// RecordChunk is how many accesses one chunk of a Recording holds; a
// chunk is allocated whole when the stream reaches it.
const RecordChunk = 1 << recordChunkShift

const recordChunkShift = 14

// recordPages bounds the workloads Record accepts: an access to a page
// below it fits a uint16 with its write bit.
const recordPages = 1 << 15

// Recording is a fixed number of a workload's operations, generated once
// and replayed by any number of Replays: the jobs of a figure that run
// different models over one workload read one stream. A workload reads
// nothing back from the simulator, so a replay is the stream the workload
// would have generated live.
//
// An access is stored as the uint16 page<<1|write in fixed-size chunks,
// so growth never copies; every workload of the default scale has fewer
// than recordPages pages. An op is the uint32 end offset of its accesses,
// and BaseOpNs is kept once when every op reported the same value — per
// op only otherwise (a Colocated's alternates between its tenants'). A Recording is immutable once Record
// returns and safe for concurrent replays.
type Recording struct {
	src    Workload
	chunks [][]uint16
	ends   []uint32
	base   float64
	bases  []float64
}

// Record steps src through ops operations — NextOp, then BaseOpNs, the
// order the simulator calls them in — and keeps what they returned.
// reserve is asked for every allocation's bytes before it is made; when it
// refuses, or the stream will not fit the format (more than recordPages
// pages, a page outside [0, NumPages), 2^32 accesses or more), Record hands
// the bytes it reserved back to reserve as a negative count and returns
// nil: the caller generates live. src is left stepped past the recorded
// ops; Source returns it. A workload of too many pages is refused before
// anything is reserved or stepped.
func Record(src Workload, ops int, reserve func(bytes int64) bool) *Recording {
	if src.NumPages() > recordPages {
		return nil
	}
	r := &Recording{src: src}
	var held int64
	grab := func(bytes int64) bool {
		if !reserve(bytes) {
			return false
		}
		held += bytes
		return true
	}
	abandon := func() *Recording {
		reserve(-held)
		return nil
	}
	pages := mem.PageID(src.NumPages())
	if !grab(4 * int64(ops)) {
		return abandon()
	}
	r.ends = make([]uint32, ops)
	var buf []Access
	n := 0 // accesses recorded
	for i := range r.ends {
		buf = src.NextOp(buf[:0])
		base := src.BaseOpNs()
		switch {
		case i == 0:
			r.base = base
		case r.bases == nil && base != r.base:
			if !grab(8 * int64(ops)) {
				return abandon()
			}
			r.bases = make([]float64, ops)
			for j := 0; j < i; j++ {
				r.bases[j] = r.base
			}
		}
		if r.bases != nil {
			r.bases[i] = base
		}
		if n+len(buf) > math.MaxUint32 {
			return abandon()
		}
		for _, a := range buf {
			if a.Page < 0 || a.Page >= pages {
				return abandon()
			}
			v := uint16(a.Page) << 1
			if a.Write {
				v |= 1
			}
			at := n & (RecordChunk - 1)
			if at == 0 {
				if !grab(2 * RecordChunk) {
					return abandon()
				}
				r.chunks = append(r.chunks, make([]uint16, RecordChunk))
			}
			r.chunks[n>>recordChunkShift][at] = v
			n++
		}
		r.ends[i] = uint32(n)
	}
	return r
}

// Source returns the workload the recording was generated from. Its Name,
// NumPages and Content are the replays' own; anything that needs the
// concrete workload (a Colocated's composite content source) reads it
// here, never from a Replay.
func (r *Recording) Source() Workload { return r.src }

// Replay returns a fresh reader positioned at the recording's first op.
func (r *Recording) Replay() *Replay { return &Replay{r: r} }

// Replay is a Workload that reads a Recording's stream back, op by op.
// After the last recorded op, NextOp yields empty ops.
type Replay struct {
	r  *Recording
	op int // ops returned so far
	at int // accesses returned so far
}

// Name implements Workload: the source's.
func (p *Replay) Name() string { return p.r.src.Name() }

// NumPages implements Workload: the source's.
func (p *Replay) NumPages() int64 { return p.r.src.NumPages() }

// Content implements Workload: the source's.
func (p *Replay) Content() corpus.Profile { return p.r.src.Content() }

// BaseOpNs implements Workload: what the source reported after the op
// NextOp last returned (before the first, the first op's value).
func (p *Replay) BaseOpNs() float64 {
	if p.r.bases == nil {
		return p.r.base
	}
	return p.r.bases[max(p.op-1, 0)]
}

// NextOp implements Workload: the next recorded op's accesses.
func (p *Replay) NextOp(buf []Access) []Access {
	r := p.r
	if p.op == len(r.ends) {
		return buf
	}
	at, end := p.at, int(r.ends[p.op])
	for at < end {
		chunk := r.chunks[at>>recordChunkShift]
		lo := at & (RecordChunk - 1)
		hi := min(lo+end-at, RecordChunk)
		for _, v := range chunk[lo:hi] {
			buf = append(buf, Access{Page: mem.PageID(v >> 1), Write: v&1 != 0})
		}
		at += hi - lo
	}
	p.op, p.at = p.op+1, end
	return buf
}
