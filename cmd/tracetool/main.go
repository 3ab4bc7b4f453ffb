// Command tracetool inspects access traces and derives views of
// observability event streams.
//
//	tracetool -stat t.trace
//	tracetool -csv run.csv -events run.jsonl
//	tracetool -chrome run.json -events run.jsonl
//
// -stat prints the trace header (workload name, footprint, content
// profile), the distinct base op costs, op/access counts, read/write mix,
// and a per-region hotness histogram — the offline view of what the PEBS
// profiler would see; tierscape -record writes the trace. -csv and -chrome
// read a deterministic JSONL event stream (tierscape -events, experiments
// -events): -csv writes its windows as CSV rows, one run per file, and
// -chrome writes Chrome trace-event JSON for Perfetto / chrome://tracing.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"

	"tierscape/internal/mem"
	"tierscape/internal/obs"
	"tierscape/internal/trace"
	"tierscape/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: reports go to stdout, diagnostics to stderr, and the
// result is the exit status — 2 for a command line it cannot act on (bad
// flag, no mode, -chrome or -csv without -events, negative -top), 1 for a
// mode that failed (an unreadable or malformed trace or event stream, a
// failed write).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracetool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	statPath := fs.String("stat", "", "trace file to analyze")
	top := fs.Int("top", 10, "hottest regions to list in -stat")
	chromePath := fs.String("chrome", "", "Chrome trace-event JSON file to write (needs -events)")
	csvPath := fs.String("csv", "", "windows CSV file to write, one row per window of a one-run stream (needs -events)")
	eventsPath := fs.String("events", "", "JSONL event stream to convert with -chrome or -csv")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *top < 0 {
		fmt.Fprintf(stderr, "-top must be >= 0, got %d\n", *top)
		return 2
	}

	var err error
	switch {
	case *chromePath != "" || *csvPath != "":
		if *eventsPath == "" {
			mode := "-chrome"
			if *chromePath == "" {
				mode = "-csv"
			}
			fmt.Fprintln(stderr, mode+" needs -events FILE (a JSONL stream from tierscape -events or experiments -events)")
			return 2
		}
		if *chromePath != "" {
			err = exportChrome(stdout, *eventsPath, *chromePath)
		}
		if err == nil && *csvPath != "" {
			err = exportCSV(stdout, *eventsPath, *csvPath)
		}
	case *statPath != "":
		err = stat(stdout, *statPath, *top)
	default:
		fmt.Fprintln(stderr, "need -stat FILE, or -csv FILE or -chrome FILE with -events FILE")
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// readEvents decodes the JSONL event stream at path with obs.ReadStream,
// naming the file in any error.
func readEvents(path string, fn func(label string, w *obs.WindowSnapshot, m *obs.MoveEvent) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.ReadStream(f, fn); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// exportCSV writes the windows of the JSONL event stream at eventsPath to
// outPath as CSV rows, reporting what it wrote on stdout. A CSV has one
// header, so the stream must hold one run of one tier lineup: a second run
// marker, or a marker after the first run's events, is refused, and so is
// a window whose tier count differs from the first window's.
func exportCSV(stdout io.Writer, eventsPath, outPath string) error {
	var buf bytes.Buffer
	c := obs.NewCSV(&buf)
	runs, rows := 0, 0 // a run begins at a marker, or at an event before any
	err := readEvents(eventsPath, func(label string, w *obs.WindowSnapshot, m *obs.MoveEvent) error {
		if (w == nil && m == nil) || runs == 0 {
			if runs++; runs > 1 {
				return fmt.Errorf("a second run %q: a CSV holds one run", label)
			}
		}
		if w == nil {
			return nil
		}
		rows++
		return c.Write(w)
	})
	if err != nil {
		return err
	}
	if rows == 0 {
		return fmt.Errorf("%s: no window events", eventsPath)
	}
	if err := os.WriteFile(outPath, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d window rows to %s\n", rows, outPath)
	return nil
}

func stat(stdout io.Writer, path string, top int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	numRegions := (tr.NumPages() + mem.RegionPages - 1) / mem.RegionPages
	regionHits := make([]int64, numRegions)
	uniquePages := make(map[mem.PageID]struct{})
	var opsN, accesses, writes int64

	var buf []workload.Access
	costs := make(map[float64]bool)
	for {
		buf = tr.NextOp(buf[:0])
		if tr.Exhausted() {
			break
		}
		costs[tr.BaseOpNs()] = true
		opsN++
		for _, a := range buf {
			accesses++
			if a.Write {
				writes++
			}
			regionHits[a.Page.Region()]++
			uniquePages[a.Page] = struct{}{}
		}
	}
	if err := tr.Err(); err != nil {
		return fmt.Errorf("%s: after %d ops: %w", path, opsN, err)
	}

	fmt.Fprintf(stdout, "trace: %s\n", path)
	fmt.Fprintf(stdout, "workload: %s\n", tr.Name())
	fmt.Fprintf(stdout, "pages: %d (%d regions), content profile: %s\n",
		tr.NumPages(), numRegions, tr.Content())
	fmt.Fprintf(stdout, "base op costs (ns): %v\n", slices.Sorted(maps.Keys(costs)))
	fmt.Fprintf(stdout, "ops: %d   accesses: %d (%.2f/op)   writes: %.1f%%\n",
		opsN, accesses, float64(accesses)/float64(max(opsN, 1)),
		100*float64(writes)/float64(max(accesses, 1)))
	fmt.Fprintf(stdout, "unique pages touched: %d (%.1f%% of footprint)\n",
		len(uniquePages), 100*float64(len(uniquePages))/float64(tr.NumPages()))

	type rh struct {
		region mem.RegionID
		hits   int64
	}
	ranked := make([]rh, 0, numRegions)
	for r, h := range regionHits {
		ranked = append(ranked, rh{mem.RegionID(r), h})
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].hits > ranked[b].hits })
	if top > len(ranked) {
		top = len(ranked)
	}
	fmt.Fprintf(stdout, "hottest %d regions:\n", top)
	for _, r := range ranked[:top] {
		bar := int(64 * r.hits / max(ranked[0].hits, 1))
		fmt.Fprintf(stdout, "  region %4d  %10d  %s\n", r.region, r.hits, strings.Repeat("#", bar))
	}
	return nil
}
