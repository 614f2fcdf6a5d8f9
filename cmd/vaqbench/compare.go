package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// comparedMetric is one row of the -compare delta table. higherIsBetter
// decides which direction of change counts as a regression.
type comparedMetric struct {
	name           string
	baseline, next float64
	format         func(float64) string
	higherIsBetter bool
}

// fmtQPS and fmtNs render metric values for the delta table.
func fmtQPS(v float64) string { return fmt.Sprintf("%.0f", v) }
func fmtNs(v float64) string  { return time.Duration(v).Round(time.Microsecond).String() }
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// runCompare diffs two vaqbench -json summaries and fails (exit 1) when
// any tracked metric regresses by more than thresholdPct percent. Two
// summaries are only comparable when their config fingerprints match
// (same dataset, params and layout); a mismatch exits 2 unless force is
// set, so a perf tracker never silently compares apples to oranges.
func runCompare(baselinePath, nextPath string, thresholdPct float64, force bool) int {
	base, err := loadSummary(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vaqbench: %v\n", err)
		return 2
	}
	next, err := loadSummary(nextPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vaqbench: %v\n", err)
		return 2
	}
	if accuracyName(base.Params.Accuracy) != accuracyName(next.Params.Accuracy) {
		// Not forceable: an exact and a fast run answer queries differently,
		// so their perf deltas are meaningless and a CI gate comparing them
		// would silently wave through a kernel swap.
		fmt.Fprintf(os.Stderr, "vaqbench: accuracy modes differ (%s vs %s): summaries are never comparable\n",
			accuracyName(base.Params.Accuracy), accuracyName(next.Params.Accuracy))
		return 2
	}
	if base.Provenance.ConfigFingerprint != next.Provenance.ConfigFingerprint {
		fmt.Fprintf(os.Stderr, "vaqbench: config fingerprints differ (%s vs %s): summaries are not comparable\n",
			base.Provenance.ConfigFingerprint, next.Provenance.ConfigFingerprint)
		if !force {
			fmt.Fprintln(os.Stderr, "vaqbench: pass -force to compare anyway")
			return 2
		}
	}

	rows := []comparedMetric{
		{"qps", base.Search.QPS, next.Search.QPS, fmtQPS, true},
		{"latency_p50", float64(base.Search.LatencyP50Ns), float64(next.Search.LatencyP50Ns), fmtNs, false},
		{"latency_p95", float64(base.Search.LatencyP95Ns), float64(next.Search.LatencyP95Ns), fmtNs, false},
		{"latency_p99", float64(base.Search.LatencyP99Ns), float64(next.Search.LatencyP99Ns), fmtNs, false},
		{"ti_prune_rate", base.Search.TIPruneRate, next.Search.TIPruneRate, fmtPct, true},
		{"ea_abandon_rate", base.Search.EAAbandonRate, next.Search.EAAbandonRate, fmtPct, true},
	}
	// Answer-quality rows, diffed only when both summaries carry the data
	// (recall needs -recall-sample runs; mse_share needs -report runs) — a
	// QPS win that silently trades recall away must show up here.
	if base.Metrics.RecallSamples > 0 && next.Metrics.RecallSamples > 0 {
		rows = append(rows, comparedMetric{
			"observed_recall", base.Metrics.ObservedRecall(), next.Metrics.ObservedRecall(), fmtPct, true,
		})
	}
	if base.Report != nil && next.Report != nil {
		rows = append(rows, comparedMetric{
			"mse_share", base.Report.MSEShare, next.Report.MSEShare, fmtPct, false,
		})
	}

	fmt.Printf("comparing %s -> %s (threshold %.1f%%)\n", baselinePath, nextPath, thresholdPct)
	fmt.Printf("%-16s %14s %14s %9s\n", "metric", "baseline", "new", "delta")
	regressed := false
	for _, r := range rows {
		deltaPct := 0.0
		if r.baseline != 0 {
			deltaPct = 100 * (r.next - r.baseline) / r.baseline
		}
		mark := ""
		bad := deltaPct < -thresholdPct
		if !r.higherIsBetter {
			bad = deltaPct > thresholdPct
		}
		if bad {
			mark = "  REGRESSION"
			regressed = true
		}
		fmt.Printf("%-16s %14s %14s %+8.1f%%%s\n",
			r.name, r.format(r.baseline), r.format(r.next), deltaPct, mark)
	}
	if regressed {
		fmt.Fprintf(os.Stderr, "vaqbench: regression beyond %.1f%% threshold\n", thresholdPct)
		return 1
	}
	fmt.Println("no regression beyond threshold")
	return 0
}

// loadSummary reads one vaqbench -json document. Three shapes are
// accepted: a plain benchSummary, a -layout all layoutComparison
// (its blocked exact arm is the one compared — the default production
// configuration), and
// pre-provenance summaries, whose fingerprint is synthesized from the
// embedded params with the same scheme provenanceFor stamps today, so old
// committed baselines stay comparable.
func loadSummary(path string) (*benchSummary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSummary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Params.Dataset == "" {
		// Not a flat summary — try the -layout all comparison document.
		var cmp layoutComparison
		if err := json.Unmarshal(b, &cmp); err == nil && cmp.Blocked != nil && cmp.Blocked.Params.Dataset != "" {
			fmt.Fprintf(os.Stderr, "vaqbench: %s is a layout-comparison document; comparing its blocked (exact) arm\n", path)
			s = *cmp.Blocked
		}
	}
	if s.Params.Dataset == "" {
		return nil, fmt.Errorf("%s: no benchmark params (not a vaqbench -json summary?)", path)
	}
	if s.Provenance.ConfigFingerprint == "" {
		s.Provenance = provenanceFor(s.Params)
	}
	return &s, nil
}
