package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (end-to-end metric, workload) pair of two result sets.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict compares metric d of run b against run a. A change counts only
// beyond the metric's bound; when either run's own quartile spread is wider
// than the bound and the two quartile ranges overlap, the pair cannot be
// told apart and is unresolved rather than unchanged.
func verdict(d metricDef, a, b summary) string {
	worse := (b.Value - a.Value) / math.Abs(a.Value)
	if d.higher {
		worse = -worse
	}
	spread := math.Max((a.Q3-a.Q1)/math.Abs(a.Value), (b.Q3-b.Q1)/math.Abs(b.Value))
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	switch {
	case spread > d.bound && overlap:
		return unresolved
	case worse > d.bound:
		return regressed
	case worse < -d.bound:
		return improved
	}
	return unchanged
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareFiles prints a verdict per (end-to-end metric, workload) of the
// untraced runs both sets hold, and returns 1 if any pair regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pairs, regressions := 0, 0
	fmt.Fprintf(stdout, "%-14s %-24s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Trace != 0 || rb.Trace != 0 || ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			for _, d := range endToEndMetrics {
				sa, sb := ra.Metrics[d.name], rb.Metrics[d.name]
				v := verdict(d, sa, sb)
				pairs++
				if v == regressed {
					regressions++
				}
				fmt.Fprintf(stdout, "%-14s %-24s %14.6g %14.6g %+7.2f%% %5.2f%%  %s\n",
					ra.Workload, d.name, sa.Value, sb.Value, 100*(sb.Value-sa.Value)/math.Abs(sa.Value), 100*d.bound, v)
			}
		}
	}
	if pairs == 0 {
		fmt.Fprintln(stderr, "the two sets share no untraced run of the same workload and seed")
		return 2
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d of %d pairs regressed\n", regressions, pairs)
		return 1
	}
	return 0
}
