package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/ztier"
)

// shapeSeeds are the page-generation seeds the option-space census and the
// Figure 2 shape test cover: Figure 2's own seed and two more.
var shapeSeeds = []uint64{7, 42, 123}

// censusPages is the page count of one census cell and of one Figure 2
// shape cell. At 128 pages the census reaches its 256-page verdicts: the
// same components are dominated in every cell, by the same rivals. Only
// the per-seed counts of lzo and lzo-rle move, by three cells. Below 128,
// deflate's zsmalloc tiers lose to zbud on dickens: too few objects to
// fill zsmalloc's size classes.
const censusPages = 128

// censusKey names one census cell: a configuration on one data set at one
// seed.
type censusKey struct {
	seed    uint64
	dataset corpus.Profile
	cfg     ztier.Config
}

// censusPoint is a cell's position on the three axes a tier is chosen by:
// Figure 2's access latency and normalized TCO, and the modeled cost of
// demoting a page into it.
type censusPoint struct {
	accessNs, normTCO, compressNs float64
}

// dominates reports whether a is no worse than b on every axis and better
// on one.
func (a censusPoint) dominates(b censusPoint) bool {
	return a.accessNs <= b.accessNs && a.normTCO <= b.normTCO && a.compressNs <= b.compressNs && a != b
}

// censusVerdict is how one value of a component (a codec, or a pool) fares
// against its rivals: a rival is the same configuration with only that
// component changed.
type censusVerdict struct {
	cells, dominated map[uint64]int // per seed
	// everywhere holds, per seed, the rivals that dominate the value in
	// every one of that seed's cells.
	everywhere map[uint64]map[string]bool
}

func (v *censusVerdict) dominatedEverywhere() bool {
	for seed, n := range v.cells {
		if v.dominated[seed] != n {
			return false
		}
	}
	return true
}

// rivalsEverywhere returns the rivals that dominate the value in every cell
// of every seed, sorted.
func (v *censusVerdict) rivalsEverywhere() []string {
	var out []string
	for r := range v.everywhere[shapeSeeds[0]] {
		all := true
		for _, seed := range shapeSeeds[1:] {
			all = all && v.everywhere[seed][r]
		}
		if all {
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return out
}

func (v *censusVerdict) String() string {
	var b strings.Builder
	for i, seed := range shapeSeeds {
		if i > 0 {
			b.WriteString(", ")
		}
		rivals := make([]string, 0, len(v.everywhere[seed]))
		for r := range v.everywhere[seed] {
			rivals = append(rivals, r)
		}
		slices.Sort(rivals)
		fmt.Fprintf(&b, "seed %d: %d/%d cells %v", seed, v.dominated[seed], v.cells[seed], rivals)
	}
	return b.String()
}

// censusVerdicts judges each of values — every value one component takes
// in the option space — against the others, cell by cell. get reads the
// component of a configuration and set replaces it.
func censusVerdicts(points map[censusKey]censusPoint, values []string,
	get func(ztier.Config) string, set func(ztier.Config, string) ztier.Config) map[string]*censusVerdict {
	out := map[string]*censusVerdict{}
	for _, v := range values {
		vd := &censusVerdict{cells: map[uint64]int{}, dominated: map[uint64]int{}, everywhere: map[uint64]map[string]bool{}}
		for _, seed := range shapeSeeds {
			vd.everywhere[seed] = map[string]bool{}
			for _, r := range values {
				if r != v {
					vd.everywhere[seed][r] = true
				}
			}
		}
		out[v] = vd
	}
	for k, p := range points {
		own := get(k.cfg)
		vd := out[own]
		vd.cells[k.seed]++
		hit := false
		for _, r := range values {
			if r == own {
				continue
			}
			rk := k
			rk.cfg = set(k.cfg, r)
			if points[rk].dominates(p) {
				hit = true
			} else {
				delete(vd.everywhere[k.seed], r)
			}
		}
		if hit {
			vd.dominated[k.seed]++
		}
	}
	return out
}

// TestOptionSpaceCensus is the paper's argument for the tiers it evaluates,
// made over the whole option space (Table 1): every configuration on
// Figure 2's data sets at three seeds, placed on Figure 2's access_us and
// norm_tco axes plus the modeled demotion cost. A codec is compared with
// the other codecs on the same pool and medium, a pool with the other
// pools on the same codec and medium. A codec or pool that no paper
// configuration uses, and that is dominated in every cell, has no reason
// to be in the module; the test names it and its dominators.
func TestOptionSpaceCensus(t *testing.T) {
	space := ztier.OptionSpace()
	var codecs, pools []string
	for _, c := range space {
		if !slices.Contains(codecs, c.Codec) {
			codecs = append(codecs, c.Codec)
		}
		if !slices.Contains(pools, c.Pool) {
			pools = append(pools, c.Pool)
		}
	}
	// The paper's configurations: the characterization tiers C1–C12 and
	// the production tiers CT-1 and CT-2. Their components stay whatever
	// the census says; what it says of them is a finding, not a deletion.
	paper := []ztier.Config{ztier.CT1(), ztier.CT2()}
	for k := 1; k <= 12; k++ {
		paper = append(paper, ztier.Characterization(k))
	}
	paperCodecs, paperPools := map[string]bool{}, map[string]bool{}
	for _, c := range paper {
		paperCodecs[c.Codec], paperPools[c.Pool] = true, true
	}

	keys := make([]censusKey, 0, len(shapeSeeds)*len(fig2Datasets)*len(space))
	for _, seed := range shapeSeeds {
		for _, ds := range fig2Datasets {
			for _, cfg := range space {
				keys = append(keys, censusKey{seed: seed, dataset: ds, cfg: cfg})
			}
		}
	}
	cells := make([]tierCell, len(keys))
	_ = RunSet(len(keys), func(i int) error {
		k := keys[i]
		cells[i] = characterize(k.cfg, k.dataset, k.seed, censusPages)
		return nil
	})
	points := make(map[censusKey]censusPoint, len(keys))
	for i, k := range keys {
		points[k] = censusPoint{
			accessNs:   cells[i].accessNs,
			normTCO:    cells[i].normTCO,
			compressNs: ztier.CompressNs(k.cfg.Codec, ztier.PageSize),
		}
	}

	for _, side := range []struct {
		kind   string
		values []string
		paper  map[string]bool
		get    func(ztier.Config) string
		set    func(ztier.Config, string) ztier.Config
	}{
		{"codec", codecs, paperCodecs,
			func(c ztier.Config) string { return c.Codec },
			func(c ztier.Config, v string) ztier.Config { c.Codec = v; return c }},
		{"pool", pools, paperPools,
			func(c ztier.Config) string { return c.Pool },
			func(c ztier.Config, v string) ztier.Config { c.Pool = v; return c }},
	} {
		verdicts := censusVerdicts(points, side.values, side.get, side.set)
		for _, v := range side.values {
			vd := verdicts[v]
			t.Logf("%s %-8s dominated in %s", side.kind, v, vd)
			if vd.dominatedEverywhere() && !side.paper[v] {
				t.Errorf("%s %s is dominated in every cell (everywhere by %v) and no paper configuration uses it: delete it",
					side.kind, v, vd.rivalsEverywhere())
			}
		}
	}
}

// TestPaperShape_Fig2 pins Figure 2's shape on both data sets at three
// seeds, through the per-cell code Fig2 itself runs:
//
//   - access latency strictly increases from C1 to C12 (the numbering is
//     the paper's latency order: codec, then pool, then medium);
//   - on every pool and medium, deflate compresses smaller than lzo, and
//     lzo smaller than lz4;
//   - normalized TCO is no higher on zsmalloc than on zbud, and lower on
//     Optane than on DRAM, with the other two components fixed.
func TestPaperShape_Fig2(t *testing.T) {
	type run struct {
		seed  uint64
		ds    int
		cells []tierCell // C1..C12 at index 0..11
	}
	var runs []*run
	for _, seed := range shapeSeeds {
		for ds := range fig2Datasets {
			runs = append(runs, &run{seed: seed, ds: ds, cells: make([]tierCell, 12)})
		}
	}
	_ = RunSet(len(runs)*12, func(i int) error {
		r := runs[i/12]
		r.cells[i%12] = characterize(ztier.Characterization(i%12+1), fig2Datasets[r.ds], r.seed, censusPages)
		return nil
	})
	for _, r := range runs {
		name := fmt.Sprintf("%s/seed %d", fig2Datasets[r.ds], r.seed)
		c := func(k int) tierCell { return r.cells[k-1] }
		for k := 2; k <= 12; k++ {
			if !(c(k).accessNs > c(k-1).accessNs) {
				t.Errorf("%s: access C%d %.0f ns not above C%d %.0f ns", name, k, c(k).accessNs, k-1, c(k-1).accessNs)
			}
		}
		// C1–C4 are lz4, C5–C8 lzo, C9–C12 deflate, each over the same
		// four (pool, medium) pairs in the same order.
		for j := 1; j <= 4; j++ {
			lz4, lzo, deflate := c(j).ratio, c(j+4).ratio, c(j+8).ratio
			if !(deflate < lzo && lzo < lz4) {
				cfg := ztier.Characterization(j)
				t.Errorf("%s: ratios on %s/%s: deflate %.4f, lzo %.4f, lz4 %.4f; want deflate < lzo < lz4",
					name, cfg.Pool, cfg.Media, deflate, lzo, lz4)
			}
		}
		// Within each codec's four tiers: ZB-DR, ZB-OP, ZS-DR, ZS-OP.
		for base := 1; base <= 9; base += 4 {
			for m := 0; m < 2; m++ {
				zb, zs := c(base+m), c(base+2+m)
				if zs.normTCO > zb.normTCO {
					t.Errorf("%s: zsmalloc C%d norm_tco %.4f above zbud C%d %.4f", name, base+2+m, zs.normTCO, base+m, zb.normTCO)
				}
			}
			for p := 0; p < 4; p += 2 {
				dr, op := c(base+p), c(base+p+1)
				if !(op.normTCO < dr.normTCO) {
					t.Errorf("%s: Optane C%d norm_tco %.4f not below DRAM C%d %.4f", name, base+p+1, op.normTCO, base+p, dr.normTCO)
				}
			}
		}
	}
}
