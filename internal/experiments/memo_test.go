package experiments

import (
	"sync/atomic"
	"testing"

	"tierscape/internal/obs"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// TestSweepMemoVerify is the memo's truth check at figure level: with the
// checking mode on, every hit of a whole figure is also regenerated from
// the asking manager's own page table and recompressed, and must be the
// store the memo gave. Figure 7 covers the lineup's content profiles and
// both standard codecs. The second figure is there for the key's version
// term: a store under YCSB-A's mix (half of all operations are updates)
// whose hot set drifts, so pages are written while hot, cool down and are
// demoted as later versions of themselves.
func TestSweepMemoVerify(t *testing.T) {
	s := tinyScale()
	drifting := s
	drifting.OpsPerWindow, drifting.Windows = 2000, 6
	updates := WorkloadSpec{Name: "KV/updates", New: func(s Scale) workload.Workload {
		kv, err := workload.NewKV(workload.KVConfig{
			Name: "KV/updates", Keys: s.KVPages * 7 / 8, ValueSize: 4096,
			Driver: workload.DriverYCSB, WriteRatio: 0.5, ShiftEvery: 500, Seed: s.Seed,
		})
		if err != nil {
			panic(err)
		}
		return kv
	}}
	for _, c := range []struct {
		name string
		fig  func() (*Table, error)
		// written is the first generator index that names a written page
		// (version ≥ 1); 0 where the figure mixes address-space sizes.
		written uint64
	}{
		{"Fig7", func() (*Table, error) { return Fig7(s) }, 0},
		{"KV/updates", func() (*Table, error) { return fig7(drifting, []WorkloadSpec{updates}) }, uint64(updates.New(drifting).NumPages())},
	} {
		var verified, mismatched, rewritten atomic.Int64
		memo := ztier.NewStoreMemo(storeMemoBudget)
		memo.Verify = func(k ztier.StoreKey, got, want ztier.PreparedStore) {
			verified.Add(1)
			if !got.Equal(want) {
				mismatched.Add(1)
			}
			if c.written > 0 && k.Index >= c.written {
				rewritten.Add(1)
			}
		}
		withStoreMemo(t, func() *ztier.StoreMemo { return memo }, func() {
			if _, err := c.fig(); err != nil {
				t.Fatal(err)
			}
		})
		st := memo.Stats()
		if verified.Load() != st.Hits || st.Hits == 0 || mismatched.Load() != 0 {
			t.Errorf("%s: %d hits, %d verified, %d of them wrong", c.name, st.Hits, verified.Load(), mismatched.Load())
		}
		if c.written > 0 && rewritten.Load()*10 < st.Hits {
			t.Errorf("%s: %d of %d hits were on written pages; want an update-heavy figure to lean on them", c.name, rewritten.Load(), st.Hits)
		}
		t.Logf("%s: %d lookups, %d hits verified, %d on written pages", c.name, st.Lookups, st.Hits, rewritten.Load())
	}
}

// TestSweepMemoHitShare: the share of a sweep's compressions that are
// repeats, as a count. On one worker the jobs run one after another, so
// the memo's traffic is a function of the figure alone and repeats
// exactly; at Figure 7's small scale (the fig_sweep workload) at least
// 55 % of the lookups find their page already compressed. The same counts
// reach the sweep's Live.
func TestSweepMemoHitShare(t *testing.T) {
	s := SmallScale()
	sweep := func() ztier.MemoStats {
		var memo *ztier.StoreMemo
		l := obs.NewLive()
		s := s
		s.Live = l
		withStoreMemo(t, func() *ztier.StoreMemo { memo = ztier.NewStoreMemo(storeMemoBudget); return memo }, func() {
			withProcs(1, func() {
				if _, err := Fig7(s); err != nil {
					t.Fatal(err)
				}
			})
		})
		st := memo.Stats()
		vars := l.Vars().(map[string]any)
		if got := (ztier.MemoStats{
			Lookups: vars["store_memo_lookups"].(int64),
			Hits:    vars["store_memo_hits"].(int64),
			Bytes:   vars["store_memo_bytes"].(int64),
		}); got != st {
			t.Errorf("Live reports %+v, the memo %+v", got, st)
		}
		return st
	}
	first := sweep()
	if first.Lookups == 0 || float64(first.Hits) < 0.55*float64(first.Lookups) {
		t.Errorf("Fig7 at small scale: %d of %d lookups hit, want at least 55 %%", first.Hits, first.Lookups)
	}
	if first.Bytes == 0 || first.Bytes > storeMemoBudget/2 {
		t.Errorf("Fig7 at small scale held %d bytes of a %d budget", first.Bytes, int64(storeMemoBudget))
	}
	if again := sweep(); again != first {
		t.Errorf("second serial sweep: %+v, first: %+v; want the same counts", again, first)
	}
	t.Logf("Fig7 small, one worker: %d lookups, %d hits (%.1f %%), %.1f MB held",
		first.Lookups, first.Hits, 100*float64(first.Hits)/float64(first.Lookups), float64(first.Bytes)/(1<<20))
}
