package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// cell parses a table cell as float.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a number: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// findRow returns the first row whose given column equals val.
func findRow(t *testing.T, tab *Table, col int, val string) []string {
	t.Helper()
	for _, r := range tab.Rows {
		if r[col] == val {
			return r
		}
	}
	t.Fatalf("no row with %q in column %d of %s", val, col, tab.Title)
	return nil
}

func f(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%q not a number", s)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tab.Add("1", "2")
	tab.Addf(3.14159, int64(7))
	tab.Note("hello %d", 5)
	s := tab.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "3.14") || !strings.Contains(s, "note: hello 5") {
		t.Fatalf("rendering broken:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Fatalf("csv broken:\n%s", csv)
	}
}

func TestFig1ShapeMonotone(t *testing.T) {
	tab, err := Fig1(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	// Savings must increase with placement aggressiveness (paper Fig. 1).
	s20, s50, s80 := cell(t, tab, 0, 1), cell(t, tab, 1, 1), cell(t, tab, 2, 1)
	if !(s20 < s50 && s50 < s80) {
		t.Fatalf("savings not monotone: %v %v %v", s20, s50, s80)
	}
	// And 80%% placement must hurt performance more than 20%%.
	d20, d80 := cell(t, tab, 0, 2), cell(t, tab, 2, 2)
	if d80 <= d20 {
		t.Fatalf("slowdown not increasing: 20%%=%v 80%%=%v", d20, d80)
	}
}

func TestFig2Shape(t *testing.T) {
	tab := Fig2(128)
	if len(tab.Rows) != 24 {
		t.Fatalf("rows = %d, want 24 (12 tiers x 2 datasets)", len(tab.Rows))
	}
	get := func(tier, dataset string) (lat, tco float64) {
		for _, r := range tab.Rows {
			if r[0] == tier && r[2] == dataset {
				return f(t, r[3]), f(t, r[4])
			}
		}
		t.Fatalf("missing %s/%s", tier, dataset)
		return 0, 0
	}
	// Figure 2a orderings on nci.
	c1lat, c1tco := get("C1", "nci")
	c12lat, c12tco := get("C12", "nci")
	c2lat, _ := get("C2", "nci")
	if !(c1lat < c2lat && c1lat < c12lat) {
		t.Fatalf("latency ordering violated: C1=%v C2=%v C12=%v", c1lat, c2lat, c12lat)
	}
	if c12tco >= c1tco {
		t.Fatalf("C12 TCO %v should beat C1 %v", c12tco, c1tco)
	}
	// nci compresses better than dickens on the same tier.
	_, c12dtco := get("C12", "dickens")
	if c12tco >= c12dtco {
		t.Fatalf("nci TCO %v should beat dickens %v on C12", c12tco, c12dtco)
	}
	// Normalized TCO can never exceed uncompressed DRAM. zbud tiers on
	// dickens legitimately hit 1.0: lz4 leaves dickens objects ~2.5 KB, and
	// two of those cannot share a 4 KB zbud page, so no pages are saved —
	// the very limitation §2 describes. Dense zsmalloc tiers must beat 1.
	for _, r := range tab.Rows {
		v := f(t, r[4])
		if v > 1.0001 {
			t.Fatalf("tier %s dataset %s norm_tco %v > 1", r[0], r[2], v)
		}
		if strings.HasPrefix(r[1], "ZS-") && v >= 0.95 {
			t.Fatalf("zsmalloc tier %s dataset %s norm_tco %v; want < 0.95", r[0], r[2], v)
		}
	}
}

func TestTable1Is54(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 54 {
		t.Fatalf("rows = %d, want 54", len(tab.Rows))
	}
}

func TestFig8WaterfallAges(t *testing.T) {
	tab, err := Fig8(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != SmallScale().Windows {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// TCO savings must become positive at some window.
	any := false
	for i := range tab.Rows {
		if cell(t, tab, i, 6) > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("waterfall never saved TCO")
	}
}

func TestFig9RecordsRecommendationAndActual(t *testing.T) {
	tab, err := Fig9(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	// Recommendation columns (1..4) must sum to the actual total (5..8).
	var rec, act float64
	for i := 1; i <= 4; i++ {
		rec += f(t, last[i])
	}
	for i := 5; i <= 8; i++ {
		act += f(t, last[i])
	}
	if rec != act {
		t.Fatalf("recommended pages %v != actual pages %v", rec, act)
	}
	// AM-TCO must recommend most pages OUT of DRAM (paper: <5% in DRAM).
	if f(t, last[1]) > rec/2 {
		t.Fatalf("AM-TCO recommended %v/%v pages in DRAM; want minority", f(t, last[1]), rec)
	}
}

func TestFig10KnobFrontier(t *testing.T) {
	tab, err := Fig10(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	// 5 AM points + 8 baseline points.
	if len(tab.Rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(tab.Rows))
	}
	// Realized savings broadly rise as alpha tightens 0.9 -> 0.1. The
	// drifting hot set can fault aggressively-placed pages back (the §8.2.2
	// deep dive), so allow a few points of non-monotonicity while requiring
	// the overall trend: the tightest knob must beat the loosest clearly.
	prev := -1.0
	for i := 0; i < 5; i++ {
		s := cell(t, tab, i, 2)
		if s < prev-6 {
			t.Fatalf("alpha sweep savings regressed at row %d: %v -> %v", i, prev, s)
		}
		if s > prev {
			prev = s
		}
	}
	if lo, hi := cell(t, tab, 0, 2), cell(t, tab, 4, 2); hi < lo+5 {
		t.Fatalf("alpha=0.1 savings %v should clearly beat alpha=0.9's %v", hi, lo)
	}
}

func TestFig14TaxSmall(t *testing.T) {
	tab, err := Fig14(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	// only-profiling must cost almost nothing (paper: minimal overhead).
	r := findRow(t, tab, 0, "only-profiling")
	if rel := f(t, r[1]); rel < 0.97 {
		t.Fatalf("profiling-only rel perf %v; want > 0.97", rel)
	}
	// A remote row is its local row plus one round trip per window in
	// daemon_ms and solver_ms; the round trip is a wait, so rel_perf is
	// the local one (paper: a negligible difference).
	rtt := float64(SmallScale().Windows) * remoteRTTNs / 1e6
	for _, name := range []string{"AM-TCO", "AM-perf"} {
		local, remote := findRow(t, tab, 0, name+"-Local"), findRow(t, tab, 0, name+"-Remote")
		if remote[1] != local[1] {
			t.Errorf("%s: remote rel_perf %s, local %s; want equal", name, remote[1], local[1])
		}
		for col := 2; col <= 3; col++ {
			if d := f(t, remote[col]) - f(t, local[col]); math.Round(d*100) != math.Round(rtt*100) {
				t.Errorf("%s %s: remote %s − local %s = %.2f, want %.2f", name, tab.Headers[col], remote[col], local[col], d, rtt)
			}
		}
	}
}

// TestPaperShape_TierCount: §8.3.2's claim that more compressed tiers give
// more achievable savings, checked on each lineup's α frontier at both
// slowdown budgets over three seeds: five tiers save more than one and
// more than two at 5 % and at 10 %.
func TestPaperShape_TierCount(t *testing.T) {
	for _, seed := range shapeSeeds {
		s := SmallScale()
		s.Seed = seed
		tab, err := TierCountAblation(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 3 {
			t.Fatalf("seed %d: rows = %d, want 3", seed, len(tab.Rows))
		}
		for _, col := range []int{1, 3} {
			one, two, five := cell(t, tab, 0, col), cell(t, tab, 1, col), cell(t, tab, 2, col)
			if !(five > one && five > two) {
				t.Errorf("seed %d, %s: 5-tier savings %v not above 1-tier %v and 2-tier %v",
					seed, tab.Headers[col], five, one, two)
			}
		}
		// Deviation from the paper, kept as this scale's behaviour: within
		// 10 % slowdown the 2-tier pair (C7 + C12) saves less than C7 alone
		// on every seed, while the default scale orders the pair above C7
		// at both budgets (EXPERIMENTS.md). Within 5 % the two are not
		// ordered across seeds here: seed 7's pair has no α inside it.
		if one, two := cell(t, tab, 0, 3), cell(t, tab, 1, 3); !(one > two) {
			t.Errorf("seed %d: within 10 %% the 2-tier pair saves %v, the 1-tier %v; this scale orders 1 above 2", seed, two, one)
		}
	}
}

// TestSolverAblationShape: the one solver saves meaningfully and
// certifies a finite gap to its LP bound in [0, 100] %.
func TestSolverAblationShape(t *testing.T) {
	tab, err := SolverAblation(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("want one solver row, got %d", len(tab.Rows))
	}
	if sv := cell(t, tab, 0, 2); sv <= 5 {
		t.Fatalf("solver savings too low: %v", sv)
	}
	if gap := cell(t, tab, 0, 4); !(gap >= 0 && gap <= 100) {
		t.Fatalf("lp_gap_pct_max %v not a gap in [0, 100]", gap)
	}
}

func TestWorkloadSpecsBuild(t *testing.T) {
	s := SmallScale()
	for _, spec := range Workloads() {
		wl := spec.New(s)
		if wl.NumPages() <= 0 {
			t.Errorf("%s: no pages", spec.Name)
		}
	}
}

func TestPrefetchAblationShape(t *testing.T) {
	tab, err := PrefetchAblation(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Row 0 is threshold 0 (off): zero prefetches; enabled rows must
	// prefetch and cut demand faults.
	if cell(t, tab, 0, 4) != 0 {
		t.Fatal("prefetches counted while disabled")
	}
	if cell(t, tab, 2, 4) == 0 {
		t.Fatal("threshold 4 never prefetched")
	}
	if cell(t, tab, 2, 3) >= cell(t, tab, 0, 3) {
		t.Fatalf("prefetcher did not cut faults: %v vs %v",
			cell(t, tab, 2, 3), cell(t, tab, 0, 3))
	}
}

func TestFilterAblationShowsThrashControl(t *testing.T) {
	tab, err := FilterAblation(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	// Filter on must not increase faults versus off.
	if cell(t, tab, 0, 3) > cell(t, tab, 1, 3) {
		t.Fatalf("filter on has more faults (%v) than off (%v)",
			cell(t, tab, 0, 3), cell(t, tab, 1, 3))
	}
}

func TestCXLVariantRuns(t *testing.T) {
	tab, err := CXLVariant(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// Both substrates must save TCO under AM-TCO.
	for _, r := range tab.Rows {
		if r[1] == "AM-TCO" && f(t, r[3]) <= 0 {
			t.Fatalf("%s AM-TCO saved nothing", r[0])
		}
	}
}

func TestCompressibilityAwareBeatsBlind(t *testing.T) {
	tab, err := CompressibilityAware(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	blind := findRow(t, tab, 0, "AM-blind")
	aware := findRow(t, tab, 0, "AM-aware")
	// The aware model must waste fewer stores on incompressible regions...
	if f(t, aware[3]) > f(t, blind[3]) {
		t.Fatalf("aware rejects %v > blind %v", aware[3], blind[3])
	}
	// ...and still save TCO.
	if f(t, aware[2]) <= 0 {
		t.Fatal("aware model saved nothing")
	}
}

func TestTelemetryAblationBothWork(t *testing.T) {
	tab, err := TelemetryAblation(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if f(t, r[2]) <= 5 {
			t.Fatalf("%s telemetry: AM saved only %v%%", r[0], r[2])
		}
	}
}

func TestColocationSharesSavings(t *testing.T) {
	tab, err := Colocation(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	colo := tab.Rows[2]
	if colo[0] != "colocated" {
		t.Fatalf("row 2 = %v", colo)
	}
	if f(t, colo[3]) <= 10 {
		t.Fatalf("colocated savings %v%%; tiering should still work shared", colo[3])
	}
}

func TestScatterRendering(t *testing.T) {
	tab := &Table{
		Title:   "test",
		Headers: []string{"cfg", "x", "y"},
	}
	tab.Add("alpha", "1.0", "10")
	tab.Add("beta", "5.0", "50")
	tab.Add("alpha", "2.0", "20")
	out := Scatter(tab, 1, 2, 0, 40, 10)
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "a=alpha") {
		t.Fatalf("scatter missing legend:\n%s", out)
	}
	if !strings.Contains(out, "b=beta") {
		t.Fatalf("clashing markers not disambiguated:\n%s", out)
	}
	// Non-numeric rows are skipped, empty tables degrade gracefully.
	empty := &Table{Title: "e", Headers: []string{"a", "b", "c"}}
	empty.Add("x", "nan-ish", "text")
	if out := Scatter(empty, 1, 2, 0, 40, 10); !strings.Contains(out, "no numeric points") {
		t.Fatalf("empty scatter: %q", out)
	}
}

func TestFig7ParallelMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow")
	}
	tab, err := Fig7(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8*6 {
		t.Fatalf("rows = %d, want 48", len(tab.Rows))
	}
	// AM-TCO must out-save every two-tier baseline for the KV workloads.
	for _, wl := range []string{"Memcached/YCSB", "Redis/YCSB"} {
		var am, bestBase float64
		for _, r := range tab.Rows {
			if r[0] != wl {
				continue
			}
			v := f(t, r[3])
			if r[1] == "AM-TCO" {
				am = v
			} else if r[1] == "HeMem*" || r[1] == "GSwap*" || r[1] == "TMO*" {
				if v > bestBase {
					bestBase = v
				}
			}
		}
		if am <= bestBase {
			t.Errorf("%s: AM-TCO savings %v <= best baseline %v", wl, am, bestBase)
		}
	}
}
