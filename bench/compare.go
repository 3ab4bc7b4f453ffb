package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worseBy is how much b is worse than a as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runCompare prints one row per (workload, end-to-end metric) of capture
// b against capture a: ok, WORSE (b's median is worse than a's by more
// than the bound), or unresolved (either side's interquartile spread is
// wider than the bound, so the medians decide nothing). With equal seeds
// and scales the modeled metrics, the mem.* counts and the snapshot
// digests must be identical. It returns the exit code: non-zero on any
// WORSE, DRIFT or digest mismatch.
func runCompare(w io.Writer, manifestPath, pathA, pathB string) int {
	var mf manifest
	var a, b capture
	for path, v := range map[string]any{manifestPath: &mf, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	sameInputs := a.Seed == b.Seed && a.Scale == b.Scale
	bad := 0
	fmt.Fprintf(w, "a: %s  commit %s  %d CPUs  noisy=%v\nb: %s  commit %s  %d CPUs  noisy=%v\n",
		pathA, a.Host.Commit, a.Host.NumCPU, a.Noisy, pathB, b.Host.Commit, b.Host.NumCPU, b.Noisy)
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "verdict")
	row := func(workload, name, better string, bound float64, traced bool) {
		va, vb := a.series(workload, name, traced), b.series(workload, name, traced)
		if len(va) == 0 && len(vb) == 0 {
			return
		}
		ma, mb := median(va), median(vb)
		verdict := "ok"
		switch {
		case len(va) == 0 || len(vb) == 0:
			verdict = "MISSING"
			bad++
		case modeled[name] && sameInputs:
			if ma != mb {
				verdict = "DRIFT"
				bad++
			} else {
				verdict = "identical"
			}
		case bound < 0:
			verdict = "info"
		case spread(va) > bound || spread(vb) > bound:
			verdict = "unresolved"
		case worseBy(ma, mb, better) > bound:
			verdict = "WORSE"
			bad++
		}
		limit := "exact"
		if !modeled[name] || !sameInputs {
			limit = fmt.Sprintf("%.0f%%", bound*100)
			if bound < 0 {
				limit = "-"
			}
		}
		fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %8.1f%% %7s  %s\n", workload, name, ma, mb, worseBy(ma, mb, better)*100, limit, verdict)
	}
	for _, wl := range mf.Workloads {
		for _, m := range mf.EndToEnd {
			row(wl.Name, m.Name, m.Better, m.Bound, false)
		}
		for _, d := range timedExtras {
			row(wl.Name, d.name, d.better, -1, false)
		}
		for _, m := range mf.PerLayer {
			if modeled[m.Name] {
				row(wl.Name, m.Name, m.Better, -1, true)
			}
		}
		da, db := a.digest(wl.Name), b.digest(wl.Name)
		verdict := "identical"
		switch {
		case !sameInputs:
			verdict = "not comparable (seed or scale differ)"
		case da != db:
			verdict = "MISMATCH"
			bad++
		}
		fmt.Fprintf(w, "%-16s %-22s %.12s… %.12s…  %s\n", wl.Name, "snapshot_digest", da, db, verdict)
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d row(s) failed\n", bad)
		return 1
	}
	return 0
}
