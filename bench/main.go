// Command bench is the repository's speed-at-recall benchmark: four
// workloads over generated data, end-to-end metrics through the public vaq
// package with no spans recorded, and a separate traced pass that times the
// calls into each layer from outside. See README.md.
//
//	go run -C bench . -workload all              every end-to-end metric
//	go run -C bench . -workload lut_bound -trace 1
//	go run -C bench . -workload all -out out/a.json
//	go run -C bench . -compare out/a.json out/b.json
//	go run -C bench . -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Scale     string             `json:"scale"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Runs []runResult `json:"runs"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: scan_exact, scan_int, lut_bound, sharded_mixed or all")
	seed := fs.Int64("seed", 1, "seed of the generated data and queries (Config.Seed stays 1)")
	seconds := fs.Float64("seconds", 12, "seconds of timed phases per run")
	trace := fs.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics instead")
	smoke := fs.Bool("smoke", false, "run every workload, both passes, at toy sizes")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	out := fs.String("out", "", "also write the results of this invocation to this file")
	outDir := fs.String("outdir", "out", "directory for span files and scratch bundles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sc, traces := fullScale, []int{*trace}
	if *smoke {
		sc, traces, *seconds = smokeScale, []int{0, 1}, 1
	}
	todo := sc.workloads
	if *name != "all" {
		w, err := sc.find(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		todo = []workload{w}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "-seconds must be at least 1 and -trace 0 or 1")
		return 2
	}

	var set resultSet
	for _, w := range todo {
		for _, tr := range traces {
			res, err := runOne(sc, w, *seed, *seconds, tr, *outDir)
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
				return 1
			}
			set.Runs = append(set.Runs, res)
			printRun(stdout, res)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	code := 0
	for _, res := range set.Runs {
		if err := res.complete(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", res.Workload, err)
			code = 1
		}
	}
	if len(set.Runs) == 1 {
		// The last line of a single run is the object the driver reads.
		fmt.Fprintln(stdout, set.Runs[0].driverLine())
	}
	return code
}

func runOne(sc scale, w workload, seed int64, seconds float64, trace int, outDir string) (runResult, error) {
	setups, untraced := sc.setups, seconds
	if trace == 1 {
		// One set-up (setup_s is an end-to-end metric), and half the time for
		// the untraced phases the vaq.* context metrics come from; the traced
		// passes take the other half.
		setups, untraced = 1, seconds/2
	}
	res := runResult{Workload: w.name, Scale: sc.name, Seed: seed, Seconds: seconds, Trace: trace}
	m, err := measure(sc, w, seed, untraced, setups)
	if err != nil {
		return res, err
	}
	res.Metrics = m.metrics
	if trace == 1 {
		if res.Metrics, err = tracedPass(m, seconds/2, outDir); err != nil {
			return res, fmt.Errorf("traced pass: %w", err)
		}
	}
	res.Attempted, res.Failed, res.Notes = m.check.attempted, m.check.failed, m.check.notes
	res.Correct = res.Failed == 0
	return res, nil
}

func (r runResult) declared() []metricDef {
	if r.Trace == 1 {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// complete reports a run that failed a check or lacks a declared metric.
func (r runResult) complete() error {
	if !r.Correct {
		return fmt.Errorf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Notes)
	}
	for _, d := range r.declared() {
		s, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("metric %s missing or not a number", d.name)
		}
	}
	return nil
}

func printRun(w io.Writer, r runResult) {
	kind := "end-to-end"
	if r.Trace == 1 {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "\n== %s  %s  scale=%s seed=%d seconds=%g\n", r.Workload, kind, r.Scale, r.Seed, r.Seconds)
	fmt.Fprintf(w, "%-34s %14s %-10s %14s %14s %9s\n", "metric", "value", "unit", "q1", "q3", "samples")
	for _, d := range r.declared() {
		s := r.Metrics[d.name]
		fmt.Fprintf(w, "%-34s %14.6g %-10s %14.6g %14.6g %9d\n", d.name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(w, "%-34s %14.6g %-10s %38d\n", "failed_share", float64(r.Failed)/float64(r.Attempted), "ratio", r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  failed:", n)
	}
}

// driverLine is the one-line JSON object the driver's contract asks for.
func (r runResult) driverLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range r.declared() {
		line.Metrics[d.name] = value{r.Metrics[d.name].Value, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, r.Attempted, r.Attempted)
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
