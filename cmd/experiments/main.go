// Command experiments regenerates the paper's evaluation tables and
// figures on the simulator.
//
// Usage:
//
//	experiments -fig all                 # everything
//	experiments -fig 7                   # Figure 7 (standard mix)
//	experiments -fig 13 -scale small     # Figure 13 at test scale
//	experiments -fig 2 -csv              # Figure 2 as CSV
//	GOMAXPROCS=4 experiments -fig 7      # 4 runs at once
//	                                     # (tables are identical at every GOMAXPROCS)
//	experiments -fig 7 -metrics-addr :9090   # live /metrics, /healthz, pprof
//	experiments -fig 7 -events runs.jsonl    # deterministic per-run event stream
//
// Exhibits: 1, 2, 7, 8, 9, 10, 11, 12, 13, 14, table1, ablations.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tierscape/internal/experiments"
	"tierscape/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: tables go to stdout, diagnostics to stderr, and the
// result is the exit status — 2 for a command line it cannot act on (bad
// flag, unknown exhibit or scale), 1 for a run that failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "exhibit to regenerate (1,2,7,8,9,10,11,12,13,14,table1,ablations,all)")
	scale := fs.String("scale", "default", "experiment scale: default or small")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	plot := fs.Bool("plot", false, "also render scatter plots for slowdown-vs-savings exhibits (7, 10, 13)")
	compactBudget := fs.Int("compact-budget", 0, "pool pages each run's per-window compaction may reclaim (0 = unbounded full sweep); NOTE: a bounded budget defers reclamation, so tables differ from the default")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :9090) while exhibits run")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint up this long after the exhibits finish (for scraping a completed batch)")
	events := fs.String("events", "", "append every run's deterministic JSONL event stream to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *compactBudget < 0 {
		fmt.Fprintf(stderr, "invalid value %d for flag -compact-budget: a budget cannot be negative\n", *compactBudget)
		return 2
	}

	var s experiments.Scale
	switch *scale {
	case "default":
		s = experiments.DefaultScale()
	case "small":
		s = experiments.SmallScale()
	default:
		fmt.Fprintf(stderr, "unknown scale %q\n", *scale)
		return 2
	}
	s.CompactBudget = *compactBudget

	if *metricsAddr != "" {
		s.Live = obs.NewLive()
		addr, err := obs.Serve(*metricsAddr, s.Live)
		if err != nil {
			fmt.Fprintf(stderr, "metrics listener: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "metrics: http://%s/metrics (also /healthz, /debug/pprof)\n", addr)
	}
	var eventsFile *os.File
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintf(stderr, "events file: %v\n", err)
			return 1
		}
		eventsFile = f
		s.Events = f
	}

	print := func(t *experiments.Table) {
		if *csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprintln(stdout, t.String())
		}
	}
	type exhibit struct {
		name string
		run  func() (*experiments.Table, error)
	}
	exhibits := []exhibit{
		{"1", func() (*experiments.Table, error) { return experiments.Fig1(s) }},
		{"2", func() (*experiments.Table, error) { return experiments.Fig2(512), nil }},
		{"table1", func() (*experiments.Table, error) { return experiments.Table1(), nil }},
		{"7", func() (*experiments.Table, error) { return experiments.Fig7(s) }},
		{"8", func() (*experiments.Table, error) { return experiments.Fig8(s) }},
		{"9", func() (*experiments.Table, error) { return experiments.Fig9(s) }},
		{"10", func() (*experiments.Table, error) { return experiments.Fig10(s) }},
		{"11", func() (*experiments.Table, error) { return experiments.Fig11(s) }},
		{"12", func() (*experiments.Table, error) { return experiments.Fig12(s) }},
		{"13", func() (*experiments.Table, error) { return experiments.Fig13(s) }},
		{"14", func() (*experiments.Table, error) { return experiments.Fig14(s) }},
		{"cxl", func() (*experiments.Table, error) { return experiments.CXLVariant(s) }},
		{"ablations", func() (*experiments.Table, error) { return nil, runAblations(s, print) }},
	}

	ran := false
	for _, e := range exhibits {
		if *fig != "all" && *fig != e.name {
			continue
		}
		ran = true
		tab, err := e.run()
		if err != nil {
			fmt.Fprintf(stderr, "exhibit %s: %v\n", e.name, err)
			return 1
		}
		if tab != nil {
			print(tab)
			if *plot {
				switch e.name {
				case "7", "13":
					// slowdown col 2, savings col 3, model/config col 1
					fmt.Fprintln(stdout, experiments.Scatter(tab, 2, 3, 1, 72, 20))
				case "10":
					fmt.Fprintln(stdout, experiments.Scatter(tab, 1, 2, 0, 72, 20))
				}
			}
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "unknown exhibit %q\n", *fig)
		return 2
	}
	// The engine latches per-job stream errors and surfaces them as
	// exhibit failures above; a close failure here is the last way a
	// truncated event file could slip through, so it is fatal too.
	if eventsFile != nil {
		if err := eventsFile.Close(); err != nil {
			fmt.Fprintf(stderr, "closing events file: %v\n", err)
			return 1
		}
	}
	if *metricsAddr != "" && *metricsHold > 0 {
		fmt.Fprintf(stderr, "holding metrics endpoint for %v\n", *metricsHold)
		time.Sleep(*metricsHold)
	}
	return 0
}

func runAblations(s experiments.Scale, print func(*experiments.Table)) error {
	for _, run := range []func(experiments.Scale) (*experiments.Table, error){
		experiments.TierCountAblation,
		experiments.SolverAblation,
		experiments.FilterAblation,
		experiments.PrefetchAblation,
		experiments.CompressibilityAware,
		experiments.TelemetryAblation,
		experiments.Colocation,
		experiments.WindowAblation,
	} {
		tab, err := run(s)
		if err != nil {
			return err
		}
		print(tab)
	}
	return nil
}
