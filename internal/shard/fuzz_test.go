package shard

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"vaq/internal/core"
)

// Byte offsets in a VAQS stream: the next-id header word and shard 0's
// first id-mapping entry.
const (
	nextIDOffset  = 4 + 3*8
	firstIDOffset = 4 + 5*8
)

// fuzzSeedStream is a small two-shard container, the seed the fuzz target
// and the hostile-mapping tests edit.
func fuzzSeedStream(tb testing.TB) []byte {
	tb.Helper()
	data := testData(tb, 60, 8, 71)
	x := mustBuild(tb, data, core.Config{NumSubspaces: 2, Budget: 8, Seed: 71, TIClusters: 2}, Options{Shards: 2})
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hostileEdits are the id-mapping edits Read must refuse.
func hostileEdits(valid []byte) map[string][]byte {
	edit := func(off int, v []byte) []byte {
		b := append([]byte(nil), valid...)
		copy(b[off:], v)
		return b
	}
	zero := binary.LittleEndian.AppendUint64(nil, 0)
	return map[string][]byte{
		// Every id is now >= nextID, and the next Add would hand out id 0
		// a second time.
		"next id 0": edit(nextIDOffset, zero),
		// Reads back as id -1.
		"first id 0xFFFFFFFF": edit(firstIDOffset, []byte{0xFF, 0xFF, 0xFF, 0xFF}),
		// Shard 0's first id equals its second.
		"duplicate id":       edit(firstIDOffset, valid[firstIDOffset+4:firstIDOffset+8]),
		"next id past int32": edit(nextIDOffset, binary.LittleEndian.AppendUint64(nil, math.MaxInt32+2)),
	}
}

func TestReadRejectsHostileIDMappings(t *testing.T) {
	valid := fuzzSeedStream(t)
	if _, err := Read(bytes.NewReader(valid)); err != nil {
		t.Fatalf("seed stream: %v", err)
	}
	for name, b := range hostileEdits(valid) {
		if _, err := Read(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: Read accepted the stream", name)
		} else if !strings.Contains(err.Error(), "id") {
			t.Errorf("%s: error %q does not name the id mapping", name, err)
		}
	}
}

// FuzzReadSharded: Read either errors, or yields an index whose exhaustive
// search returns distinct ids in [0, nextID) and whose WriteTo output
// reads back to the same bytes.
func FuzzReadSharded(f *testing.F) {
	valid := fuzzSeedStream(f)
	f.Add(valid)
	for _, n := range []int{0, 4, nextIDOffset, firstIDOffset + 2, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	for _, b := range hostileEdits(valid) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		res, err := x.Search(make([]float32, x.Dim()), 10, core.SearchOptions{VisitFrac: 1})
		if err == nil {
			seen := map[int]bool{}
			for _, nb := range res {
				if nb.ID < 0 || nb.ID >= x.Len() || seen[nb.ID] {
					t.Fatalf("search returned id %d (next id %d) in %v", nb.ID, x.Len(), res)
				}
				seen[nb.ID] = true
			}
		}
		var first, second bytes.Buffer
		if _, err := x.WriteTo(&first); err != nil {
			t.Fatalf("WriteTo of an accepted stream: %v", err)
		}
		y, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read of a written stream: %v", err)
		}
		if _, err := y.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("WriteTo -> Read -> WriteTo changed the bytes")
		}
	})
}

// firstRepeat takes the bitmap path for dense ids and the sorting path
// when the next id is far above the id count; both find the same repeats.
func TestFirstRepeat(t *testing.T) {
	for _, tc := range []struct {
		ids    []int32
		nextID uint64
		repeat int32
		ok     bool
	}{
		{[]int32{0, 2, 1, 3}, 4, 0, false},
		{[]int32{0, 2, 1, 2}, 4, 2, true},
		{[]int32{63, 64, 0, 64}, 65, 64, true},
		{[]int32{5, math.MaxInt32, 7}, math.MaxInt32 + 1, 0, false},
		{[]int32{math.MaxInt32, 5, math.MaxInt32}, math.MaxInt32 + 1, math.MaxInt32, true},
	} {
		id, ok := firstRepeat(append([]int32(nil), tc.ids...), tc.nextID)
		if ok != tc.ok || (ok && id != tc.repeat) {
			t.Errorf("firstRepeat(%v, %d) = %d, %v; want %d, %v", tc.ids, tc.nextID, id, ok, tc.repeat, tc.ok)
		}
	}
}
