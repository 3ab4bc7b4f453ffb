package experiments

import (
	"fmt"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// Fig2 reproduces the characterization of §5 (Figure 2a/2b): for each of
// the 12 tiers C1…C12 and each data set (nci, dickens), compress
// pagesPerTier pages into the tier, then report
//
//   - access latency: the modeled fault latency averaged over the stored
//     objects' real compressed sizes (Figure 2a), and
//   - normalized memory TCO: the tier's physical footprint times its
//     medium's unit cost, relative to the same data uncompressed in DRAM
//     (Figure 2b).
func Fig2(pagesPerTier int) *Table {
	t := &Table{
		Title:   "Figure 2: characterization of 12 compressed tiers (nci, dickens)",
		Headers: []string{"tier", "config", "dataset", "access_us", "norm_tco", "ratio"},
	}
	if pagesPerTier <= 0 {
		pagesPerTier = 512
	}
	// Each (dataset, tier) cell owns its tier and generator, so the 24-cell
	// matrix fans out through the run engine; rows land in loop order.
	cells := make([]tierCell, len(fig2Datasets)*12)
	_ = RunSet(len(cells), func(i int) error {
		cells[i] = characterize(ztier.Characterization(i%12+1), fig2Datasets[i/12], 7, pagesPerTier)
		return nil
	})
	for i, c := range cells {
		k := i%12 + 1
		t.Addf(fmt.Sprintf("C%d", k), ztier.Characterization(k).String(), fig2Datasets[i/12].String(),
			c.accessNs/1000, c.normTCO, c.ratio)
	}
	t.Note("access_us is the modeled fault latency (pool lookup + media read + decompress)")
	t.Note("norm_tco < 1 means cheaper than uncompressed DRAM; DRAM load is 0.033us for comparison")
	return t
}

// fig2Datasets are Figure 2's data sets.
var fig2Datasets = []corpus.Profile{corpus.NCI, corpus.Dickens}

// tierCell is one (tier, data set) cell of the characterization: the
// modeled fault latency averaged over the stored objects' real compressed
// sizes, the footprint's cost relative to the stored pages uncompressed in
// DRAM, and the compressed payload over the stored pages' bytes.
type tierCell struct{ accessNs, normTCO, ratio float64 }

// characterize compresses pages pages of dataset, generated at seed, into
// a fresh tier of configuration cfg and measures the cell: Figure 2's
// per-cell work, which the option-space census repeats over Table 1.
func characterize(cfg ztier.Config, dataset corpus.Profile, seed uint64, pages int) tierCell {
	tier := ztier.MustNew(1, cfg)
	gen := corpus.NewGenerator(dataset, seed)
	var latNs float64
	var stored int
	for p := 0; p < pages; p++ {
		h, _, err := tier.Store(gen.Page(uint64(p), ztier.PageSize))
		if err != nil {
			continue // incompressible page rejected, like zswap
		}
		latNs += tier.AccessNs(h.CompressedSize())
		stored++
	}
	if stored == 0 {
		return tierCell{}
	}
	st := tier.Stats()
	logicalBytes := float64(stored) * ztier.PageSize
	dramCost := logicalBytes / (1 << 30) * media.Props(media.DRAM).CostPerGB
	tierCost := float64(st.PoolBytes()) / (1 << 30) * tier.CostPerGB()
	return tierCell{
		accessNs: latNs / float64(stored),
		normTCO:  tierCost / dramCost,
		ratio:    float64(st.CompressedBytes) / logicalBytes,
	}
}

// Table1 reproduces Table 1: the Linux compressed-tier option space
// (6 codecs × 3 pool managers × 3 media = 54 tiers; 842 is omitted, see
// ztier.OptionSpace).
func Table1() *Table {
	t := &Table{
		Title:   "Table 1: compressed-tier option space in Linux",
		Headers: []string{"codec", "pool", "media", "encoding"},
	}
	for _, cfg := range ztier.OptionSpace() {
		t.Add(cfg.Codec, cfg.Pool, cfg.Media.Name(), cfg.String())
	}
	t.Note("%d total configurations", len(t.Rows))
	t.Note("842 omitted: lz4, lzo and lzo-rle each dominate it in every cell of the option-space census (EXPERIMENTS.md)")
	return t
}
