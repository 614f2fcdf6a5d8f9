package vaq_test

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vaq"
)

// TestFullLifecycle drives the public API end to end: build from a
// training sample, persist, reload, insert online, and answer a batch
// workload — asserting recall against an exact scan at each stage.
func TestFullLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n, d := 3000, 32
	data := make([][]float32, n)
	for i := range data {
		row := make([]float32, d)
		for j := range row {
			scale := 1 / math.Sqrt(float64(j+1))
			row[j] = float32((float64(rng.Intn(3)-1)*2 + rng.NormFloat64()*0.3) * scale)
		}
		data[i] = row
	}
	initial, extra := data[:2500], data[2500:]

	ix, err := vaq.Build(initial, vaq.Config{
		NumSubspaces: 8,
		Budget:       64,
		Seed:         99,
		TIClusters:   40,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Persist and reload.
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ix, err = vaq.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Online insertion after reload.
	firstID, err := ix.Add(extra)
	if err != nil {
		t.Fatal(err)
	}
	if firstID != 2500 || ix.Len() != n {
		t.Fatalf("add after load: firstID=%d len=%d", firstID, ix.Len())
	}

	// Batch workload vs exact ground truth.
	const k, nq = 10, 20
	queries := make([][]float32, nq)
	for qi := range queries {
		q := append([]float32(nil), data[rng.Intn(n)]...)
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.03)
		}
		queries[qi] = q
	}
	results, err := ix.SearchBatch(queries, k, vaq.SearchOptions{VisitFrac: 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	hits, total := 0, 0
	for qi, q := range queries {
		truth := exactTop(data, q, k)
		for _, r := range results[qi] {
			total++
			if truth[r.ID] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(total)
	if recall < 0.55 {
		t.Fatalf("lifecycle recall@%d = %.3f too low", k, recall)
	}
}

func exactTop(data [][]float32, q []float32, k int) map[int]bool {
	type scored struct {
		id int
		d  float64
	}
	list := make([]scored, len(data))
	for i, row := range data {
		var s float64
		for j := range row {
			t := float64(q[j] - row[j])
			s += t * t
		}
		list[i] = scored{i, s}
	}
	sort.Slice(list, func(a, b int) bool { return list[a].d < list[b].d })
	out := make(map[int]bool, k)
	for i := 0; i < k; i++ {
		out[list[i].id] = true
	}
	return out
}
