package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := skewedData(rng, 800, 24, 1.2)
	ix, err := Build(x, x, Config{
		NumSubspaces: 6, Budget: 48, Seed: 21, TIClusters: 20, NonUniform: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	nBytes, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nBytes != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", nBytes, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ix.Len() || got.Dim() != ix.Dim() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.Len(), got.Dim(), ix.Len(), ix.Dim())
	}
	gotBits, wantBits := got.Bits(), ix.Bits()
	for i := range wantBits {
		if gotBits[i] != wantBits[i] {
			t.Fatalf("bits mismatch: %v vs %v", gotBits, wantBits)
		}
	}
	if got.TIClusterCount() != ix.TIClusterCount() {
		t.Fatalf("cluster count %d vs %d", got.TIClusterCount(), ix.TIClusterCount())
	}
	// Identical answers across every mode.
	for trial := 0; trial < 10; trial++ {
		q := append([]float32(nil), x.Row(rng.Intn(x.Rows))...)
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.05)
		}
		for _, opt := range []SearchOptions{
			{Mode: ModeHeap},
			{Mode: ModeEA},
			{Mode: ModeTIEA, VisitFrac: 0.3},
		} {
			a, err := ix.SearchWith(q, 7, opt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.SearchWith(q, 7, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("result lengths differ")
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("mode %v result %d: %v vs %v", opt.Mode, i, a[i], b[i])
				}
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must fail")
	}
	if _, err := Read(bytes.NewReader([]byte("NOTANINDEXATALL!"))); err == nil {
		t.Fatal("bad magic must fail")
	}
	// Truncated stream: write a valid index and chop it.
	rng := rand.New(rand.NewSource(23))
	x := skewedData(rng, 100, 8, 1.0)
	ix, err := Build(x, x, Config{NumSubspaces: 2, Budget: 8, Seed: 23, TIClusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{2, 3, 10} {
		cut := buf.Len() / frac
		if _, err := Read(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncated stream (1/%d) must fail", frac)
		}
	}
	// Corrupted version.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[4] = 0xFF
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version must fail")
	}
}

// Read refuses a stream that parses but breaks an invariant the query
// path relies on, and a length it would have to allocate on trust.
func TestReadRejectsInconsistentStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x := skewedData(rng, 100, 8, 1.0)
	ix, err := Build(x, x, Config{NumSubspaces: 2, Budget: 8, Seed: 24, TIClusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// Offsets: magic, version, then twelve u64 config words, the layout
	// word, TargetVariance, DefaultVisitFrac and the eigenvalue count.
	const cfgWord, visitFrac, eigenCount = 12, 12 + 14*8, 12 + 15*8
	edit := func(off int, v uint64) []byte {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}
	for name, b := range map[string][]byte{
		"early-abandon stride overflows": edit(cfgWord+6*8, math.MaxInt64),
		"early-abandon stride 0":         edit(cfgWord+6*8, 0),
		"default visit fraction NaN":     edit(visitFrac, math.Float64bits(math.NaN())),
		"default visit fraction 2":       edit(visitFrac, math.Float64bits(2)),
		"eigenvalue count 2^32":          edit(eigenCount, 1<<32),
	} {
		if _, err := Read(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: Read accepted the stream", name)
		}
	}
	if _, err := Read(bytes.NewReader(valid)); err != nil {
		t.Fatalf("unedited stream: %v", err)
	}
}
