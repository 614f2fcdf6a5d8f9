package vaq

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestPublicAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	data := genData(rng, 500, 16)
	ix, err := Build(data[:400], Config{NumSubspaces: 4, Budget: 24, Seed: 61, TIClusters: 10})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ix.Add(data[400:])
	if err != nil {
		t.Fatal(err)
	}
	if id != 400 || ix.Len() != 500 {
		t.Fatalf("id %d len %d", id, ix.Len())
	}
	res, err := ix.SearchWith(data[450], 5, SearchOptions{VisitFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.ID == 450 {
			found = true
		}
	}
	if !found {
		t.Fatalf("added vector not found: %v", res)
	}
	if _, err := ix.Add([][]float32{{1, 2}}); err == nil {
		t.Fatal("bad dimension must fail")
	}
	if _, err := ix.Add([][]float32{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged rows must fail")
	}
}

// A non-finite query is refused with ErrNonFinite by Search and, per
// query, by SearchBatch — on both index kinds and in both accuracy modes —
// while the batch's finite queries still get their answers.
func TestNonFiniteQueryRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	data := genData(rng, 400, 16)
	bad := append([]float32(nil), data[3]...)
	bad[4] = float32(math.NaN())
	inf := append([]float32(nil), data[5]...)
	inf[0] = float32(math.Inf(1))
	batch := [][]float32{data[1], bad, data[2], inf}
	for _, acc := range []AccuracyMode{AccuracyExact, AccuracyFast} {
		cfg := Config{NumSubspaces: 4, Budget: 24, Seed: 63, TIClusters: 8, Shards: 2, AccuracyMode: acc}
		ix, err := Build(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sx, err := BuildSharded(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name   string
			search func([]float32, int) ([]Result, error)
			batch  func([][]float32, int, SearchOptions, int) ([][]Result, error)
		}{
			{"Index", ix.Search, ix.SearchBatch},
			{"ShardedIndex", sx.Search, sx.SearchBatch},
		} {
			for _, q := range [][]float32{bad, inf} {
				if _, err := tc.search(q, 5); !errors.Is(err, ErrNonFinite) {
					t.Fatalf("%v %s.Search: got %v, want ErrNonFinite", acc, tc.name, err)
				}
			}
			res, err := tc.batch(batch, 5, SearchOptions{}, 2)
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%v %s.SearchBatch: got %v, want ErrNonFinite", acc, tc.name, err)
			}
			if res[1] != nil || res[3] != nil || len(res[0]) != 5 || len(res[2]) != 5 {
				t.Fatalf("%v %s.SearchBatch: want answers for the finite queries only, got %v", acc, tc.name, res)
			}
		}
	}
}

// The write path's input contract at the public surface: every build entry
// point and both Adds refuse NaN and infinities with ErrNonFinite, naming
// the row and column, and a rejected Add changes nothing.
func TestNonFiniteInputRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	data := genData(rng, 400, 16)
	cfg := Config{NumSubspaces: 4, Budget: 24, Seed: 62, TIClusters: 8, Shards: 2}
	poisoned := func(rows, row, col int, v float64) [][]float32 {
		out := make([][]float32, rows)
		for i := range out {
			out[i] = append([]float32(nil), data[i]...)
		}
		out[row][col] = float32(v)
		return out
	}
	ix, err := Build(data[:300], cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildSharded(data[:300], cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := SearchOptions{VisitFrac: 1}
	before, _ := ix.SearchWith(data[7], 5, opt)
	beforeSharded, _ := sx.SearchWith(data[7], 5, opt)

	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"Build", func() error { _, err := Build(poisoned(300, 17, 2, nan), cfg); return err }, "row 17, column 2"},
		{"BuildFlat", func() error {
			flat := make([]float32, 0, 300*16)
			for _, r := range poisoned(300, 4, 4, inf) {
				flat = append(flat, r...)
			}
			_, err := BuildFlat(flat, 300, 16, cfg)
			return err
		}, "row 4, column 4"},
		{"BuildWithTrainingSet train", func() error {
			_, err := BuildWithTrainingSet(poisoned(200, 0, 15, -inf), data[:300], cfg)
			return err
		}, "row 0, column 15"},
		{"BuildWithTrainingSet data", func() error {
			_, err := BuildWithTrainingSet(data[:200], poisoned(300, 299, 0, nan), cfg)
			return err
		}, "row 299, column 0"},
		{"BuildSharded", func() error { _, err := BuildSharded(poisoned(300, 150, 9, nan), cfg); return err }, "row 150, column 9"},
		{"BuildShardedWithTrainingSet train", func() error {
			_, err := BuildShardedWithTrainingSet(poisoned(200, 3, 3, inf), data[:300], cfg)
			return err
		}, "row 3, column 3"},
		{"BuildShardedWithTrainingSet data", func() error {
			_, err := BuildShardedWithTrainingSet(data[:200], poisoned(300, 8, 1, nan), cfg)
			return err
		}, "row 8, column 1"},
		{"Add", func() error { _, err := ix.Add(poisoned(10, 9, 9, nan)); return err }, "row 9, column 9"},
		{"ShardedIndex.Add", func() error { _, err := sx.Add(poisoned(10, 2, 0, -inf)); return err }, "row 2, column 0"},
	} {
		err := tc.run()
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%s: got %v, want ErrNonFinite", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}

	after, _ := ix.SearchWith(data[7], 5, opt)
	afterSharded, _ := sx.SearchWith(data[7], 5, opt)
	if ix.Len() != 300 || sx.Len() != 300 || !reflect.DeepEqual(after, before) || !reflect.DeepEqual(afterSharded, beforeSharded) {
		t.Fatalf("rejected Adds changed an index: Len %d / %d", ix.Len(), sx.Len())
	}
	if first, err := sx.Add(data[300:320]); err != nil || first != 300 {
		t.Fatalf("sharded Add after a rejected one: first id %d, err %v", first, err)
	}
}
