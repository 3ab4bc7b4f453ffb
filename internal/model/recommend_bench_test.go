package model

import "testing"

// benchRecommend measures Analytical.Recommend over a 64-region profile
// against the paper's standard tier mix, 4 regions drifting per window.
// persistent keeps one model across windows; otherwise every window is
// solved by a fresh model. Both solve every window afresh, so the
// difference is the allocation of the option arena and solver buffers.
// The drift is synthetic: in the simulator, cooled hotness and measured
// tier ratios reprice nearly every region every window.
func benchRecommend(b *testing.B, persistent bool) {
	const regions = 64
	m := standardManager(b, regions)
	profs := driftProfiles(regions, 32, 4)
	am := &Analytical{Alpha: 0.3}
	am.Recommend(m, profs[0]) // size the persistent buffers outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof := profs[1+i%(len(profs)-1)]
		if persistent {
			am.Recommend(m, prof)
		} else {
			(&Analytical{Alpha: 0.3}).Recommend(m, prof)
		}
	}
}

func BenchmarkRecommendFresh(b *testing.B)      { benchRecommend(b, false) }
func BenchmarkRecommendPersistent(b *testing.B) { benchRecommend(b, true) }
