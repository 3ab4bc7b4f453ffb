// Command tracetool records and inspects access traces and converts
// observability event streams.
//
//	tracetool -record t.trace -workload memcached-ycsb -ops 100000
//	tracetool -stat t.trace
//	tracetool -chrome run.json -events run.jsonl
//
// -stat prints the trace header (workload name, footprint, content
// profile), the distinct base op costs, op/access counts, read/write mix,
// and a per-region hotness histogram — the offline view of what the PEBS
// profiler would see. -chrome converts a deterministic JSONL event
// stream (tierscape -events, experiments -events) to Chrome trace-event
// JSON for Perfetto / chrome://tracing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"

	"tierscape"
	"tierscape/internal/mem"
	"tierscape/internal/trace"
	"tierscape/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: reports go to stdout, diagnostics to stderr, and the
// result is the exit status — 2 for a command line it cannot act on (bad
// flag, no mode, -chrome without -events, negative -top), 1 for a mode
// that failed (an unreadable or malformed trace, a failed write).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracetool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	statPath := fs.String("stat", "", "trace file to analyze")
	recordPath := fs.String("record", "", "trace file to write")
	workloadName := fs.String("workload", "memcached-ycsb", "workload to record")
	ops := fs.Int64("ops", 100000, "operations to record")
	pages := fs.Int64("pages", 16*tierscape.RegionPages, "workload footprint in pages")
	seed := fs.Uint64("seed", 42, "workload seed")
	top := fs.Int("top", 10, "hottest regions to list in -stat")
	chromePath := fs.String("chrome", "", "Chrome trace-event JSON file to write (needs -events)")
	eventsPath := fs.String("events", "", "JSONL event stream to convert with -chrome")
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
	if *pages < 1 || *pages > mem.MaxPages {
		fmt.Fprintf(stderr, "-pages %d outside [1, %d]\n", *pages, mem.MaxPages)
		return 2
	}

	var err error
	switch {
	case *chromePath != "":
		if *eventsPath == "" {
			fmt.Fprintln(stderr, "-chrome needs -events FILE (a JSONL stream from tierscape -events or experiments -events)")
			return 2
		}
		err = exportChrome(stdout, *eventsPath, *chromePath)
	case *statPath != "":
		err = stat(stdout, *statPath, *top)
	case *recordPath != "":
		err = record(stdout, *recordPath, *workloadName, *pages, *ops, *seed)
	default:
		fmt.Fprintln(stderr, "need -stat FILE, -record FILE, or -chrome FILE -events FILE")
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func record(stdout io.Writer, path, workloadName string, pages, ops int64, seed uint64) error {
	var wl tierscape.Workload
	switch workloadName {
	case "memcached-ycsb":
		wl = tierscape.MemcachedYCSB(pages, seed)
	case "memcached-memtier":
		wl = tierscape.MemcachedMemtier(1024, pages, seed)
	case "redis":
		wl = tierscape.RedisYCSB(pages, seed)
	case "xsbench":
		wl = tierscape.XSBenchWorkload(pages, seed)
	case "graphsage":
		wl = tierscape.GraphSAGEWorkload(pages, seed)
	case "masim":
		wl = tierscape.MasimWorkload(pages/3, 20000, seed)
	default:
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	tw, err := trace.Record(f, wl, ops)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	// A close that fails can mean bytes that never landed.
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %s: %d ops, %d accesses, %d bytes (%.2f B/access)\n",
		path, tw.Ops(), tw.Events(), st.Size(), float64(st.Size())/float64(tw.Events()))
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
