package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostRecord says where a capture was taken. A capture from fewer than
// two processors is flagged noisy: the runner's and the apply engine's
// parallelism cannot show there, so it is not a result.
type hostRecord struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1_at_start"`
}

// capture is what -workload all writes: every run of every workload.
type capture struct {
	Host  hostRecord `json:"host"`
	Seed  uint64     `json:"seed"`
	Scale string     `json:"scale"`
	Reps  int        `json:"reps"`
	Noisy bool       `json:"noisy"`
	Runs  []record   `json:"runs"`
}

func readHost(commit string) hostRecord {
	h := hostRecord{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(b)); len(fields) > 0 {
			h.Load1, _ = strconv.ParseFloat(fields[0], 64)
		}
	}
	return h
}

// runAll runs every workload timed and then traced, each run in a
// process of its own (fresh heap, own peak RSS), reps times, prints a
// summary with medians and quartiles, and writes the capture.
func runAll(o options, reps int, commit, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if out == "" {
		out = filepath.Join(o.resultsDir, "latest.json")
	}
	c := capture{Host: readHost(commit), Seed: o.seed, Scale: o.scale, Reps: reps, Noisy: runtime.NumCPU() < 2}
	if c.Noisy {
		fmt.Fprintln(os.Stderr, "bench: NOISY capture: one processor; parallel paths cannot show, do not quote these numbers")
	}
	failed := false
	for rep := 0; rep < reps; rep++ {
		for _, def := range workloads {
			var digests [2]string
			for traced := 0; traced < 2; traced++ {
				tmp := filepath.Join(o.resultsDir, fmt.Sprintf("run-%s-%d.json", def.name, traced))
				cmd := exec.Command(self,
					"-workload", def.name, "-seed", strconv.FormatUint(o.seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced),
					"-scale", o.scale, "-results", o.resultsDir, "-out", tmp)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				runErr := cmd.Run()
				var rec record
				b, err := os.ReadFile(tmp)
				if err == nil {
					err = json.Unmarshal(b, &rec)
				}
				os.Remove(tmp)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s trace=%d left no record: %v (%v)\n", def.name, traced, err, runErr)
					failed = true
					continue
				}
				failed = failed || runErr != nil
				digests[traced] = rec.Digest
				c.Runs = append(c.Runs, rec)
			}
			if digests[0] != digests[1] {
				fmt.Fprintf(os.Stderr, "bench: FAILED: %s: timed digest %s, traced digest %s\n", def.name, digests[0], digests[1])
				failed = true
			}
		}
	}
	printSummary(os.Stdout, &c)
	if err := writeJSON(out, c); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("capture written to %s\n", out)
	if failed {
		return 1
	}
	return 0
}

// series collects a capture's values of one metric on one workload, from
// the timed runs or the traced ones.
func (c *capture) series(workload, metric string, traced bool) []float64 {
	var vals []float64
	for i := range c.Runs {
		r := &c.Runs[i]
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.Value)
		} else if v, ok := r.Extras[metric]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

func (c *capture) digest(workload string) string {
	for i := range c.Runs {
		if c.Runs[i].Workload == workload {
			return c.Runs[i].Digest
		}
	}
	return ""
}

func printSummary(w *os.File, c *capture) {
	fmt.Fprintf(w, "\n== summary: seed %d, scale %s, %d rep(s); %d CPUs, GOMAXPROCS %d, %s, %s, load %.2f ==\n",
		c.Seed, c.Scale, c.Reps, c.Host.NumCPU, c.Host.GOMAXPROCS, c.Host.CPUModel, c.Host.GoVersion, c.Host.Load1)
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %14s  %s\n", "workload", "metric", "median", "q1", "q3", "unit")
	for _, def := range workloads {
		for _, d := range append(append(append([]metricDef{}, endToEnd...), timedExtras...), runInfo...) {
			vals := c.series(def.name, d.name, false)
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %14.6g  %s\n", def.name, d.name, median(vals), q1, q3, d.unit)
		}
		if vals := c.series(def.name, "trace_overhead_pct", true); len(vals) > 0 {
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14s %14s  %s\n", def.name, "trace_overhead_pct", median(vals), "", "", "%")
		}
		fmt.Fprintf(w, "%-16s %-22s %s\n", def.name, "snapshot_digest", c.digest(def.name))
	}
}
