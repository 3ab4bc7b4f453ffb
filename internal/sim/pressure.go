// Observability v2 accounting: per-tier latency histograms, PSI-style
// pressure, and the thrash/storm detectors. Everything here feeds the
// DETERMINISTIC snapshot channel, so nothing may read a clock or depend
// on goroutine interleaving:
//
//   - Latencies are observed serially on the access loop (one observer
//     per stepper) into fixed-boundary log₂ histograms: a fault is
//     histogrammed as it happens, a byte-addressable hit is counted and
//     histogrammed once a window. The aggregate is a tier-ascending
//     merge, so counts, sums and quantiles are byte-identical at every
//     push-thread count.
//   - Thrash scores are integer fixed-point (1/256 units) in a map whose
//     entries evolve independently; sums are exact int64 arithmetic, so
//     map iteration order cannot leak into the snapshot.
//   - Pressure and storm rates are pure functions of already-
//     deterministic window fields.
package sim

import (
	"tierscape/internal/mem"
	"tierscape/internal/obs"
	"tierscape/internal/policy"
	"tierscape/internal/stats"
)

// Thrash-detector fixed-point constants, in 1/256 score units. A region's
// score halves every window (integer shift), a direction flip adds one
// (thrashFlip); scores below thrashFloor (1/16) are dropped, and a region
// counts as thrashing at or above thrashThreshold (1.5 — reached by
// flipping in two consecutive windows).
const (
	thrashFlip      = 256
	thrashFloor     = thrashFlip / 16
	thrashThreshold = thrashFlip * 3 / 2
)

// tierObs is one tier's per-window accumulators: its latency histogram,
// its fault-stall time, and the hits counted but not yet histogrammed.
// hitNs is the tier's constant hit latency, its medium's LoadNs; it is 0
// on a compressed tier, which never serves a hit.
type tierObs struct {
	hist  stats.LogHist
	stall float64
	hits  int64
	hitNs float64
}

// observeAccess records one access into the window's accumulators of the
// tier that served it. A fault's latency (a fractional decode and write
// cost) is histogrammed and added to the tier's stall time. A hit on a
// byte-addressable tier always costs that tier's hitNs, so it is only
// counted here and fillWindowObs histograms the window's hits in one
// ObserveN. Hot path: no allocation, no clock reads (pinned by
// BenchmarkRecorderOffObserve).
func (s *Stepper) observeAccess(ar mem.AccessResult) {
	o := &s.tiers[ar.Tier]
	if !ar.Fault {
		o.hits++
		return
	}
	o.hist.Observe(ar.LatencyNs)
	o.stall += ar.LatencyNs
}

// decayThrash ages every region's ping-pong score by one window: halve,
// drop below the floor. Entries update independently, so map order is
// irrelevant.
func (s *Stepper) decayThrash() {
	for r, sc := range s.thrash {
		sc >>= 1
		if sc < thrashFloor {
			delete(s.thrash, r)
		} else {
			s.thrash[r] = sc
		}
	}
}

// noteMoves updates the thrash detector with this window's applied plan:
// a region whose move reversed its previous direction (promote after
// demote or vice versa) counts one ping-pong and bumps its score. Only
// moves that landed pages change a region's direction. Iterates in plan
// order — deterministic by the apply engine's contract.
func (s *Stepper) noteMoves(rec *WindowRecord, moves []policy.Move, applied []mem.MigrationResult) {
	for i, mv := range moves {
		if applied[i].Moved == 0 || mv.Dest == mv.From {
			continue
		}
		dir := int8(-1) // demote: toward a higher TierID
		if mv.Dest < mv.From {
			dir = 1 // promote: toward DRAM
		}
		if prev := s.lastDir[mv.Region]; prev != 0 && prev != dir {
			rec.PingPongMoves++
			s.thrash[mv.Region] += thrashFlip
		}
		s.lastDir[mv.Region] = dir
	}
}

// fillWindowObs finalizes the window's latency summaries, pressure
// accounting and detector gauges into rec, then resets the per-window
// accumulators. Must run after rec.AppNs, rec.Moves and rec.Rejected are
// final.
//
// Each tier's k counted hits enter its histogram here as ObserveN(hitNs,
// k). That leaves the bytes k Observe calls would: hitNs is an integer
// (media.TestLoadNsIntegers), a byte-addressable tier's histogram holds
// nothing but hits (a fault lands on the compressed tier that served it),
// and the histogram restarts every window, so k·hitNs is exact, far below
// 2^53.
func (s *Stepper) fillWindowObs(rec *WindowRecord, interferenceNs float64) {
	var agg stats.LogHist
	var faultStall float64
	rec.TierLatency = make([]obs.LatencySummary, len(s.tiers))
	for t := range s.tiers {
		o := &s.tiers[t]
		o.hist.ObserveN(o.hitNs, o.hits)
		if o.hist.Count() > 0 {
			rec.TierLatency[t] = latencySummary(&o.hist, true)
			agg.Merge(&o.hist)
		}
		faultStall += o.stall
	}
	rec.Latency = latencySummary(&agg, false)
	if faultStall > 0 {
		rec.TierStallNs = make([]float64, len(s.tiers))
		for t := range s.tiers {
			rec.TierStallNs[t] = s.tiers[t].stall
		}
	}
	rec.FaultStallNs = faultStall
	rec.InterferenceNs = interferenceNs
	if rec.AppNs > 0 {
		rec.Pressure = (faultStall + interferenceNs) / rec.AppNs
	}

	rec.MigratedBytes = int64(rec.Moves+rec.Rejected) * mem.PageSize
	if rec.AppNs > 0 {
		rec.StormBytesPerSec = float64(rec.MigratedBytes) / (rec.AppNs / 1e9)
	}

	var total int64
	for _, sc := range s.thrash {
		total += sc
		if sc >= thrashThreshold {
			rec.ThrashRegions++
		}
	}
	rec.ThrashScore = float64(total) / thrashFlip

	for t := range s.tiers {
		s.tiers[t] = tierObs{hitNs: s.tiers[t].hitNs}
	}
}

// latencySummary digests one histogram; withBuckets attaches the sparse
// bucket list (per-tier summaries carry it, the aggregate does not — the
// aggregate is reconstructible as the tier-wise sum).
func latencySummary(h *stats.LogHist, withBuckets bool) obs.LatencySummary {
	ls := obs.LatencySummary{Count: h.Count(), SumNs: h.SumNs()}
	if h.Count() == 0 {
		return ls
	}
	ls.P50Ns = h.Quantile(0.50)
	ls.P95Ns = h.Quantile(0.95)
	ls.P99Ns = h.Quantile(0.99)
	ls.P999Ns = h.Quantile(0.999)
	if withBuckets {
		h.ForEachBucket(func(b int, c int64) {
			ls.Buckets = append(ls.Buckets, obs.HistBucket{B: b, N: c})
		})
	}
	return ls
}
