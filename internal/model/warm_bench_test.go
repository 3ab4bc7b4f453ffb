package model

import (
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/ztier"
)

// benchRecommend measures Analytical.Recommend over a slowly-drifting
// 64-region profile (4 regions churn per window) against the paper's
// standard tier mix. persistent keeps one model across windows; otherwise
// every window is solved by a fresh model, the cold solve.
func benchRecommend(b *testing.B, persistent bool) {
	const regions = 64
	m, err := mem.NewManager(mem.Config{
		NumPages:        regions * mem.RegionPages,
		Content:         corpus.NewGenerator(corpus.Dickens, 1),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		b.Fatal(err)
	}
	profs := driftProfiles(regions, 32, 4)
	am := &Analytical{Alpha: 0.3}
	am.Recommend(m, profs[0]) // prime the persistent state outside the timed loop
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

func BenchmarkRecommendCold(b *testing.B) { benchRecommend(b, false) }
func BenchmarkRecommendWarm(b *testing.B) { benchRecommend(b, true) }
