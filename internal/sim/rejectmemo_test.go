package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// TestRejectMemoEquivalence pins a churning spectrum run — masim's rotating
// roles over Mixed content on C1/C2/C4/C7/C12 under Waterfall(75), where a
// quarter of the pages are incompressible and get re-planned every window —
// to the window records of the manager that re-filled and re-compressed a
// page on every attempt: the hash was recorded before a pte remembered a
// rejection. Remembering one may save host work only; every count, latency
// and placement a window reports must stay what it was, at any push-thread
// count.
func TestRejectMemoEquivalence(t *testing.T) {
	const want = "38c84f0138342242e019352de0ab92f4fc3d028381a1ab89b6be9dbddc94d733"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		wl := workload.DefaultMasim(2*mem.RegionPages, 3000, 42)
		m, err := mem.NewManager(mem.Config{
			NumPages:        wl.NumPages(),
			Content:         corpus.NewGenerator(wl.Content(), 42),
			CompressedTiers: ztier.SpectrumSet(),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runPT(Config{
			Manager: m, Workload: wl, Model: &model.Waterfall{Pct: 75},
			OpsPerWindow: 2000, Windows: 12, SampleRate: 50,
		}, procs)
		if err != nil {
			t.Fatal(err)
		}
		rejected := 0
		for _, w := range res.Windows {
			rejected += w.Rejected
		}
		if rejected < 1000 {
			t.Fatalf("GOMAXPROCS=%d: only %d rejected pages over the run; the test is vacuous", procs, rejected)
		}
		b, err := json.Marshal(res.Windows)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("GOMAXPROCS=%d: windows digest %q (%d rejected), want %q", procs, got, rejected, want)
		}
	}
}
