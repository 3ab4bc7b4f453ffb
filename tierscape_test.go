package tierscape

import (
	"testing"

	"tierscape/internal/model"
)

func TestStandardRunBaselineVsAM(t *testing.T) {
	base, err := StandardRun(MemcachedYCSB(4*RegionPages, 7), nil, 3, 3000)
	if err != nil {
		t.Fatal(err)
	}
	am, err := StandardRun(MemcachedYCSB(4*RegionPages, 7), AMTCO(), 3, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if base.SavingsPct() != 0 {
		t.Fatalf("baseline savings = %v", base.SavingsPct())
	}
	if am.SavingsPct() <= 0 {
		t.Fatalf("AM-TCO savings = %v, want > 0", am.SavingsPct())
	}
	if am.SlowdownPctVs(base) > 200 {
		t.Fatalf("slowdown = %v%%, implausible", am.SlowdownPctVs(base))
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(RunConfig{Workload: MemcachedYCSB(RegionPages, 1)}); err == nil {
		t.Fatal("zero windows should fail")
	}
}

// TestStdTiersMatchRule pins the facade's standard-mix tier ids to the
// targets internal/model derives for StandardMix() over NVMM, so the public
// constants cannot drift from the rule the CLI and the figures use.
func TestStdTiersMatchRule(t *testing.T) {
	for b, want := range map[model.Baseline]TierID{model.HeMemStar: StdNVMM, model.GSwapStar: StdCT1, model.TMOStar: StdCT2} {
		mdl, err := b.New([]MediaKind{NVMM}, StandardMix(), 25)
		if err != nil || mdl.SlowTier != want {
			t.Errorf("%v on the standard mix: %+v, %v; the facade's constant says tier %d", b, mdl, err, want)
		}
	}
}

func TestFacadeConstructors(t *testing.T) {
	if len(StandardMix()) != 2 || len(Spectrum()) != 5 {
		t.Fatal("tier set sizes wrong")
	}
	for _, m := range []Model{
		AMTCO(), AMPerf(), AM(0.5), WaterfallModel(25),
		HeMemBaseline(StdNVMM, 25), GSwapBaseline(StdCT1, 25), TMOBaseline(StdCT2, 25),
	} {
		if m.Name() == "" {
			t.Fatal("model has empty name")
		}
	}
	for _, w := range []Workload{
		MemcachedYCSB(RegionPages, 1),
		MemcachedMemtier(1024, RegionPages, 1),
		RedisYCSB(RegionPages, 1),
		BFSWorkload(1024, 1),
		PageRankWorkload(1024, 1),
		XSBenchWorkload(RegionPages, 1),
		GraphSAGEWorkload(RegionPages, 1),
	} {
		if w.NumPages() <= 0 {
			t.Fatalf("%s: bad NumPages", w.Name())
		}
	}
	if CharacterizationTier(1).String() != "ZB-L4-DR" {
		t.Fatal("C1 wrong")
	}
	// The ...On constructors over a caller-built graph size the workload
	// exactly as the self-contained ones do.
	g, sg := RMatGraph(1024, 1), GraphSAGEGraph(RegionPages, 1)
	for _, pair := range [][2]Workload{
		{BFSOn(g, 1), BFSWorkload(1024, 1)},
		{PageRankOn(g), PageRankWorkload(1024, 1)},
		{GraphSAGEOn(sg, 1), GraphSAGEWorkload(RegionPages, 1)},
	} {
		if pair[0].Name() != pair[1].Name() || pair[0].NumPages() != pair[1].NumPages() {
			t.Fatalf("%s over a shared graph has %d pages, %s over its own %d",
				pair[0].Name(), pair[0].NumPages(), pair[1].Name(), pair[1].NumPages())
		}
	}
}

func TestColocateFacade(t *testing.T) {
	wl := Colocate(
		MemcachedMemtier(1024, 2*RegionPages, 3),
		MasimWorkload(RegionPages, 500, 3),
	)
	res, err := StandardRun(wl, AMTCO(), 3, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.SavingsPct() <= 0 {
		t.Fatalf("colocated savings = %v", res.SavingsPct())
	}
}

func TestYCSBFacade(t *testing.T) {
	for _, l := range []byte{'A', 'C', 'D'} {
		wl, err := YCSBWorkload(l, 2*RegionPages, 1)
		if err != nil {
			t.Fatal(err)
		}
		if wl.NumPages() <= 0 {
			t.Fatalf("YCSB-%c: no pages", l)
		}
	}
	if _, err := YCSBWorkload('Z', RegionPages, 1); err == nil {
		t.Fatal("bad letter accepted")
	}
}

func TestPrefetchFacade(t *testing.T) {
	res, err := Run(RunConfig{
		Workload:               MemcachedYCSB(4*RegionPages, 5),
		Tiers:                  StandardMix(),
		ByteTiers:              []MediaKind{NVMM},
		Model:                  AM(0.1),
		Windows:                4,
		OpsPerWindow:           4000,
		SampleRate:             20,
		PrefetchFaultThreshold: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefetches == 0 {
		t.Fatal("prefetcher never fired through the facade")
	}
}
