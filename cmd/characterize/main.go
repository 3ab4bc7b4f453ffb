// Command characterize reproduces the §5 characterization (Figure 2a/2b):
// it builds the 12 compressed tiers C1…C12, pushes nci-like and
// dickens-like data through each, and prints the measured access latency,
// normalized TCO and compression ratio per tier. Pass -pages to change how
// much data flows through each tier, and -table1 to also enumerate the
// full 63-tier option space of Table 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tierscape/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: tables go to stdout, diagnostics to stderr, and the
// result is the exit status — 2 for a command line it cannot act on.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pages := fs.Int("pages", 512, "pages to store per tier per data set")
	table1 := fs.Bool("table1", false, "also print the Table 1 option space")
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	tab := experiments.Fig2(*pages)
	if *csv {
		fmt.Fprint(stdout, tab.CSV())
	} else {
		fmt.Fprintln(stdout, tab.String())
	}
	if *table1 {
		t1 := experiments.Table1()
		if *csv {
			fmt.Fprint(stdout, t1.CSV())
		} else {
			fmt.Fprintln(stdout, t1.String())
		}
	}
	return 0
}
