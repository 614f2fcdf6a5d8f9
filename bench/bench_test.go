package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"vaq"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{0.50, 50}, {0.90, 90}, {0.99, 100}, {0.01, 10}, {1, 100},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
}

func TestWindowMedianMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([6, 1, 3, 2, 5, 4], n=4) == [1.75, 3.5, 5.25]
	s := windowMedian([]float64{6, 1, 3, 2, 5, 4}, "us", 600)
	if s.Value != 3.5 || s.Q1 != 1.75 || s.Q3 != 5.25 || s.N != 600 || s.Unit != "us" {
		t.Errorf("windowMedian = %+v", s)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if q1, q3 := quartiles([]float64{40, 10, 20}); q1 != 10 || q3 != 40 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one = %v, %v", q1, q3)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v", got)
	}
}

func TestQuietestWindowAndChunks(t *testing.T) {
	cost := quietest([]float64{12, 10, 15, 11, 14, 13}, "us", 600, false)
	if cost.Value != 10 || cost.N != 600 || cost.Q1 != 10.75 || cost.Q3 != 14.25 || len(cost.Windows) != 6 {
		t.Errorf("quietest cost = %+v", cost)
	}
	if rate := quietest([]float64{900, 1000, 950}, "queries/s", 3, true); rate.Value != 1000 {
		t.Errorf("quietest rate = %+v", rate)
	}
	// Nine samples in three chunks: the median of each, in order.
	got := perChunk([]float64{3, 1, 2, 9, 7, 8, 5, 6, 4}, 3, 0.50)
	if len(got) != 3 || got[0] != 2 || got[1] != 8 || got[2] != 5 {
		t.Errorf("perChunk = %v", got)
	}
	// Fewer samples than chunks: each sample is its own chunk.
	if got := perChunk([]float64{4, 2}, 3, 0.50); len(got) != 2 {
		t.Errorf("perChunk of two = %v", got)
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: 20..30 counted once
		{Name: "b1", Start: 25, End: 45, Parent: 2}, // grandchild: only b's concern
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the root's end
		{Name: "alone", Start: 200, End: 260, Parent: -1},
	}}
	want := []int64{100 - 40 - 10, 20, 30 - 20, 20, 30, 60}
	got := r.selfTimes()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", r.spans[i].Name, got[i], want[i])
		}
	}
	if d := r.durations("b"); len(d) != 1 || d[0] != 30 {
		t.Errorf("durations(b) = %v", d)
	}
}

func TestRecorderNestsAndWrites(t *testing.T) {
	r := newRecorder(4)
	root := r.begin("query", -1, 7)
	child := r.begin("pca.project", root, 7)
	time.Sleep(time.Millisecond)
	if r.end(child) < int64(time.Millisecond) {
		t.Error("child span shorter than the sleep inside it")
	}
	r.end(root)
	if self := r.selfTimes(); self[root] < 0 || self[root] > r.spans[root].End-r.spans[root].Start {
		t.Errorf("root self time %d outside its span", self[root])
	}
	path := t.TempDir() + "/out/spans.json"
	if err := r.writeJSON(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []struct {
		span
		Self int64 `json:"self_ns"`
	}
	if err := json.Unmarshal(b, &back); err != nil || len(back) != 2 || back[1].Parent != root || back[1].Query != 7 {
		t.Fatalf("span file round trip: %v %+v", err, back)
	}
	if back[1].Self != back[1].End-back[1].Start || back[0].Self >= back[0].End-back[0].Start {
		t.Errorf("self times in the span file: %+v", back)
	}
}

func TestOpenLoopDueLagLatency(t *testing.T) {
	o := openLoop{interval: 2 * time.Millisecond} // 500 requests a second
	if o.due(0) != 0 || o.due(250) != 500*time.Millisecond {
		t.Errorf("due times: %v %v", o.due(0), o.due(250))
	}
	// Request 3 is due at 6 ms. Sent on time, answered in 1 ms.
	if o.lag(3, 6*time.Millisecond) != 0 || o.latency(3, 7*time.Millisecond) != time.Millisecond {
		t.Error("on-time request")
	}
	// Sent 4 ms late behind a stall: the wait is its latency, not hidden.
	if o.lag(3, 10*time.Millisecond) != 4*time.Millisecond || o.latency(3, 11*time.Millisecond) != 5*time.Millisecond {
		t.Error("late request must be charged from its due time")
	}
	if o.lag(3, 5*time.Millisecond) != 0 {
		t.Error("an early send has no lag")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "query_p50_us", bound: 0.08}
	higher := metricDef{name: "batch_qps", higher: true, bound: 0.08}
	tight := func(v float64) summary { return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) summary { return summary{Value: v, Q1: v * 0.9, Q3: v * 1.1} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b summary
		want string
	}{
		{"same", lower, tight(100), tight(103), unchanged},
		{"slower", lower, tight(100), tight(120), regressed},
		{"faster", lower, tight(100), tight(80), improved},
		{"more throughput", higher, tight(100), tight(120), improved},
		{"less throughput", higher, tight(100), tight(80), regressed},
		{"noisy and overlapping", lower, wide(100), wide(112), unresolved},
		{"noisy but apart", lower, wide(100), wide(150), regressed},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitCodes(t *testing.T) {
	dir := t.TempDir()
	set := func(p50 float64) resultSet {
		m := map[string]summary{}
		for _, d := range endToEndMetrics {
			m[d.name] = scalar(100, d.unit)
		}
		m["query_p50_us"] = scalar(p50, "us")
		return resultSet{Runs: []runResult{{Workload: "scan_exact", Seed: 1, Metrics: m}}}
	}
	for name, s := range map[string]resultSet{"a": set(100), "same": set(101), "slow": set(130)} {
		if err := writeJSON(dir+"/"+name+".json", s); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	if code := compareFiles(dir+"/a.json", dir+"/same.json", &out, &errOut); code != 0 {
		t.Errorf("equal sets: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if code := compareFiles(dir+"/a.json", dir+"/slow.json", &out, &errOut); code != 1 {
		t.Errorf("regressed set: exit %d", code)
	}
	if code := compareFiles(dir+"/a.json", dir+"/missing.json", &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
}

func TestExactKNNAgainstFullSort(t *testing.T) {
	base := rows(300, 16)
	randomWalk(newStream(5, streamBase), base, smoothness)
	src := &querySource{rng: newStream(5, streamSingle), base: base, stds: columnStds(base)}
	for _, q := range src.take(20) {
		type pair struct {
			id int32
			d  float32
		}
		all := make([]pair, len(base))
		for i, r := range base {
			all[i] = pair{int32(i), squaredL2(q, r)}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].d != all[j].d {
				return all[i].d < all[j].d
			}
			return all[i].id < all[j].id
		})
		got := exactKNN(base, q, 10)
		for i, id := range got {
			if id != all[i].id {
				t.Fatalf("rank %d: id %d, want %d", i, id, all[i].id)
			}
		}
	}
	if r := recallAt([]int32{1, 2, 3, 9}, []int32{3, 2, 7, 8}); r != 0.5 {
		t.Errorf("recallAt = %v, want 0.5", r)
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	gen := func(seed int64) [][]float32 {
		b := rows(8, dim)
		randomWalk(newStream(seed, streamBase), b, smoothness)
		return b
	}
	a, b, c := gen(3), gen(3), gen(4)
	same := func(x, y [][]float32) bool {
		for i := range x {
			for j := range x[i] {
				if x[i][j] != y[i][j] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) || same(a, c) {
		t.Error("the same seed must give the same data and another seed other data")
	}
}

func TestCheckerRejectsBrokenAnswers(t *testing.T) {
	good := []vaq.Result{{ID: 4, Dist: 1}, {ID: 2, Dist: 1}, {ID: 9, Dist: 3}}
	for name, res := range map[string][]vaq.Result{
		"short":      good[:2],
		"decreasing": {{ID: 4, Dist: 2}, {ID: 2, Dist: 1}, {ID: 9, Dist: 3}},
		"duplicate":  {{ID: 4, Dist: 1}, {ID: 4, Dist: 1}, {ID: 9, Dist: 3}},
		"range":      {{ID: 4, Dist: 1}, {ID: 2, Dist: 1}, {ID: 10, Dist: 3}},
	} {
		c := newChecker(10)
		c.answer(name, res, nil, 3, 10)
		if c.attempted != 1 || c.failed != 1 || len(c.notes) != 1 {
			t.Errorf("%s: attempted %d failed %d notes %v", name, c.attempted, c.failed, c.notes)
		}
	}
	c := newChecker(10)
	c.answer("good", good, nil, 3, 10)
	c.answer("good again", good, nil, 3, 10) // same ids in a new answer are not duplicates
	if c.attempted != 2 || c.failed != 0 {
		t.Errorf("good answers: attempted %d failed %d %v", c.attempted, c.failed, c.notes)
	}
}

// TestManifestMatchesTables keeps ../BENCHMARK.json and the metric and
// workload tables of the program in step.
func TestManifestMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(fullScale.workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(doc.Workloads), len(fullScale.workloads))
	}
	for i, w := range fullScale.workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v vs %s", i, doc.Workloads[i], w.name)
		}
	}
	check := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d in the program", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better {
				t.Errorf("%s %d: declared %+v, program %+v", kind, i, m, d)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v vs %v", kind, d.name, m.Bound, d.bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics, true)
	check("per_layer", doc.PerLayer, perLayerMetrics, false)
	if endToEndMetrics[0].name != "setup_s" {
		t.Error("setup_s must be declared")
	}
}

// TestSmoke runs every workload, untraced and traced, at toy sizes: the
// harness compiles, every correctness check passes and every declared
// metric comes out as a number.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes about ten seconds")
	}
	var out, errOut bytes.Buffer
	start := time.Now()
	code := run([]string{"-smoke", "-outdir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, errOut.String(), out.String())
	}
	t.Logf("smoke run took %s", time.Since(start).Round(time.Millisecond))
}
