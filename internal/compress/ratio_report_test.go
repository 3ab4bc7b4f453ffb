package compress

import (
	"testing"

	"tierscape/internal/corpus"
)

// TestRatioReport logs the per-codec ratios on the three content classes;
// run with -v to see the table. It asserts the zstd-class codec sits where
// the paper's zstd does: clearly better than lz4/lzo, within reach of
// deflate.
func TestRatioReport(t *testing.T) {
	for _, prof := range []corpus.Profile{corpus.NCI, corpus.Dickens, corpus.Binary} {
		g := corpus.NewGenerator(prof, 1)
		src := make([]byte, 0, 16*4096)
		for i := uint64(0); i < 16; i++ {
			src = append(src, g.Page(i, 4096)...)
		}
		r := map[string]float64{}
		for _, name := range Names() {
			r[name] = Ratio(MustLookup(name), src)
		}
		t.Logf("%-8s lz4=%.3f lz4hc=%.3f lzo=%.3f zstd=%.3f deflate=%.3f",
			prof, r["lz4"], r["lz4hc"], r["lzo"], r["zstd"], r["deflate"])
		if r["zstd"] >= r["lzo"] {
			t.Errorf("%s: zstd %.3f should beat lzo %.3f", prof, r["zstd"], r["lzo"])
		}
		if r["zstd"] > r["deflate"]*1.35 {
			t.Errorf("%s: zstd %.3f too far behind deflate %.3f", prof, r["zstd"], r["deflate"])
		}
	}
}
