package vaq_test

import (
	"bytes"
	"fmt"
	"math/rand"

	"vaq"
)

func makeData(n, d int) [][]float32 {
	rng := rand.New(rand.NewSource(7))
	data := make([][]float32, n)
	for i := range data {
		row := make([]float32, d)
		for j := range row {
			row[j] = float32(rng.NormFloat64()) / float32(j+1)
		}
		data[i] = row
	}
	return data
}

// Searching many queries at once with a worker pool.
func ExampleIndex_SearchBatch() {
	data := makeData(2000, 16)
	ix, err := vaq.Build(data, vaq.Config{NumSubspaces: 4, Budget: 32, Seed: 7})
	if err != nil {
		panic(err)
	}
	queries := data[:3]
	results, err := ix.SearchBatch(queries, 2, vaq.SearchOptions{}, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(results), len(results[0]))
	// Output: 3 2
}

// Persisting a trained index and reloading it without retraining.
func ExampleIndex_WriteTo() {
	data := makeData(1000, 16)
	ix, err := vaq.Build(data, vaq.Config{NumSubspaces: 4, Budget: 24, Seed: 7})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		panic(err)
	}
	loaded, err := vaq.Read(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(loaded.Len() == ix.Len())
	// Output: true
}
