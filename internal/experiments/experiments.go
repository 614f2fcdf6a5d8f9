// Package experiments regenerates every table and figure of the VAQ paper
// (see DESIGN.md for the per-experiment index). Each experiment writes a
// plain-text report: the same rows/series the paper plots, so the shapes
// can be compared directly. cmd/vaqbench is the CLI front-end and the
// repository's root bench_test.go exposes one testing.B benchmark per
// experiment. The timings printed here are the paper's relative shapes,
// not performance evidence: that comes from the bench/ module.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"vaq/internal/dataset"
	"vaq/internal/eval"
	"vaq/internal/vec"
)

// Scale selects experiment sizes. Quick keeps everything under a couple of
// minutes for CI; Full approaches the paper's relative scales.
type Scale struct {
	// N is the base-vector count for the large datasets.
	N int
	// NQ is the query count.
	NQ int
	// GalleryCount is the number of medium-scale datasets (paper: 128).
	GalleryCount int
	// GalleryTrain caps gallery dataset sizes.
	GalleryTrain int
	// Seed for all data generation.
	Seed int64
}

// QuickScale is sized for tests and smoke runs.
var QuickScale = Scale{N: 8000, NQ: 25, GalleryCount: 16, GalleryTrain: 600, Seed: 42}

// DefaultScale is the recorded-experiment setting (EXPERIMENTS.md): the
// full 128-dataset gallery, with the large datasets scaled to what a
// single core traverses in minutes.
var DefaultScale = Scale{N: 20000, NQ: 50, GalleryCount: 128, GalleryTrain: 500, Seed: 42}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, s Scale) error
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Figure 1: quantization methods at 4 bits/subspace (recall@100 + scan time)", Run: RunFig1},
		{ID: "fig3", Title: "Figure 3: CBF vs SLC variance spectra (top-20 PCs)", Run: RunFig3},
		{ID: "fig4", Title: "Figure 4: recall when omitting subspaces (CBF, SLC)", Run: RunFig4},
		{ID: "fig6", Title: "Figure 6: MAP@100 and query time vs PQ/OPQ/ITQ-LSH on five datasets", Run: RunFig6},
		{ID: "fig7", Title: "Figure 7: pruning ablation (Heap, EA, TI+EA-0.25, TI+EA-0.1)", Run: RunFig7},
		{ID: "fig8", Title: "Figure 8: VAQ vs hardware-accelerated methods (Bolt, PQFS)", Run: RunFig8},
		{ID: "fig9", Title: "Figure 9: uniform/clustered subspaces x uniform/adaptive bits", Run: RunFig9},
		{ID: "tab1", Title: "Table I: qualitative specification matrix", Run: RunTab1},
		{ID: "tab2", Title: "Table II: average Recall/MAP over the medium-scale gallery", Run: RunTab2},
		{ID: "fig10", Title: "Figure 10: Friedman/Nemenyi ranking across the gallery", Run: RunFig10},
		{ID: "fig11", Title: "Figure 11: VAQ vs iSAX2+/DSTree/IMI+OPQ (recall vs query time)", Run: RunFig11},
		{ID: "fig12", Title: "Figure 12: VAQ vs HNSW over PQ codes (preprocessing vs query)", Run: RunFig12},
		{ID: "ablation-alloc", Title: "Ablation: MILP vs transform-coding vs uniform allocation", Run: RunAblationAlloc},
		{ID: "ablation-ti", Title: "Ablation: TI visit-fraction sweep", Run: RunAblationTI},
		{ID: "scale", Title: "Scaling: build/query cost vs dataset size (VAQ vs PQ)", Run: RunScale},
		{ID: "extra-baselines", Title: "Extra baselines: TC, VQ and E2LSH vs VAQ", Run: RunExtraBaselines},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// searchFunc answers one query with k approximate neighbors.
type searchFunc func(q []float32, k int) ([]int, error)

// method is a built, timed, searchable index.
type method struct {
	name         string
	buildSeconds float64
	search       searchFunc
}

// buildTimed wraps an index construction with wall-clock timing.
func buildTimed(name string, build func() (searchFunc, error)) (*method, error) {
	start := time.Now()
	search, err := build()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &method{name: name, buildSeconds: time.Since(start).Seconds(), search: search}, nil
}

// runQueries executes the workload and reports results plus the average
// per-query seconds.
func runQueries(m *method, queries *vec.Matrix, k int) ([][]int, float64, error) {
	results := make([][]int, queries.Rows)
	start := time.Now()
	for qi := 0; qi < queries.Rows; qi++ {
		ids, err := m.search(queries.Row(qi), k)
		if err != nil {
			return nil, 0, fmt.Errorf("%s query %d: %w", m.name, qi, err)
		}
		results[qi] = ids
	}
	avg := time.Since(start).Seconds() / float64(queries.Rows)
	return results, avg, nil
}

// measured is one evaluated method row.
type measured struct {
	name         string
	recall       float64
	mapScore     float64
	avgQuerySec  float64
	buildSeconds float64
}

// evaluate runs and scores one method against ground truth at k.
func evaluate(m *method, queries *vec.Matrix, gt [][]int, k int) (measured, error) {
	results, avg, err := runQueries(m, queries, k)
	if err != nil {
		return measured{}, err
	}
	return measured{
		name:         m.name,
		recall:       eval.Recall(results, gt, k),
		mapScore:     eval.MAP(results, gt, k),
		avgQuerySec:  avg,
		buildSeconds: m.buildSeconds,
	}, nil
}

// printTable writes measured rows with a speedup column relative to ref
// (pass "" to omit).
func printTable(w io.Writer, rows []measured, refName string) {
	var ref float64
	for _, r := range rows {
		if r.name == refName {
			ref = r.avgQuerySec
		}
	}
	fmt.Fprintf(w, "%-24s %9s %9s %12s %12s", "method", "recall", "MAP", "query(ms)", "build(s)")
	if refName != "" {
		fmt.Fprintf(w, " %10s", "speedup")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %9.4f %9.4f %12.4f %12.2f",
			r.name, r.recall, r.mapScore, r.avgQuerySec*1000, r.buildSeconds)
		if refName != "" && r.avgQuerySec > 0 {
			fmt.Fprintf(w, " %9.2fx", ref/r.avgQuerySec)
		}
		fmt.Fprintln(w)
	}
}

// largeDataset builds one of the five large stand-ins at the given scale,
// with exact ground truth at k.
func largeDataset(name string, s Scale, k int) (*dataset.Dataset, [][]int, error) {
	ds, err := dataset.Large(name, s.N, s.NQ, s.Seed)
	if err != nil {
		return nil, nil, err
	}
	gt, err := eval.GroundTruth(ds.Base, ds.Queries, k)
	if err != nil {
		return nil, nil, err
	}
	return ds, gt, nil
}

// rerank reorders candidate ids by true distance to q and keeps the top k.
func rerank(base *vec.Matrix, q []float32, ids []int, k int) []int {
	type scored struct {
		id   int
		dist float32
	}
	list := make([]scored, len(ids))
	for i, id := range ids {
		list[i] = scored{id, vec.SquaredL2(q, base.Row(id))}
	}
	sort.Slice(list, func(a, b int) bool { return list[a].dist < list[b].dist })
	if k > len(list) {
		k = len(list)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = list[i].id
	}
	return out
}
