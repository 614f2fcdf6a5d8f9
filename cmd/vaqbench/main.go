// Command vaqbench regenerates the tables and figures of the VAQ paper.
//
// Usage:
//
//	vaqbench -list
//	vaqbench -exp fig1            # one experiment at the default scale
//	vaqbench -exp all -scale quick
//	vaqbench -exp tab2 -n 50000 -gallery 128
//
// Output is plain text: the same rows/series each figure plots, so shapes
// can be compared against the paper directly (see EXPERIMENTS.md).
// Performance is measured by the bench/ module (sh bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vaq/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the requested experiments
// and returns the exit code (2 for usage errors, 1 for a failed experiment).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vaqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment id (see -list), or 'all'")
		list    = fs.Bool("list", false, "list available experiments")
		scale   = fs.String("scale", "default", "preset scale: quick or default")
		n       = fs.Int("n", 0, "override base-vector count for large datasets")
		nq      = fs.Int("nq", 0, "override query count")
		gallery = fs.Int("gallery", 0, "override gallery dataset count")
		seed    = fs.Int64("seed", 0, "override data seed")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "vaqbench: -exp is required (try -list)")
		return 2
	}
	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.QuickScale
	case "default":
		s = experiments.DefaultScale
	default:
		fmt.Fprintf(stderr, "vaqbench: unknown scale %q\n", *scale)
		return 2
	}
	if *n > 0 {
		s.N = *n
	}
	if *nq > 0 {
		s.NQ = *nq
	}
	if *gallery > 0 {
		s.GalleryCount = *gallery
	}
	if *seed != 0 {
		s.Seed = *seed
	}

	todo := experiments.Registry()
	if *exp != "all" {
		e, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(stderr, "vaqbench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		todo = []experiments.Experiment{e}
	}
	for _, e := range todo {
		fmt.Fprintf(stdout, "### %s — %s\n", e.ID, e.Title)
		fmt.Fprintf(stdout, "scale: n=%d nq=%d gallery=%d seed=%d\n\n", s.N, s.NQ, s.GalleryCount, s.Seed)
		start := time.Now()
		if err := e.Run(stdout, s); err != nil {
			fmt.Fprintf(stderr, "vaqbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "[%s completed in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
	}
	return 0
}
