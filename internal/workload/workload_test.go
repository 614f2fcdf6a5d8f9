package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func testRecord(i int) Record {
	return Record{
		LatencyNs: int64(1000 * (i + 1)),
		TraceSeq:  uint64(i),
		K:         10,
		Mode:      int32(i % 3),
		VisitFrac: 0.25,
		Subspaces: 0,
		Projected: i%2 == 1,
		Query:     []float32{float32(i), float32(i) * 0.5, -1.25},
		IDs:       []int32{int32(i), int32(i + 1)},
		Dists:     []float32{0.5, 1.5},
	}
}

func TestSampleStride(t *testing.T) {
	cases := []struct {
		rate float64
		want uint64
	}{
		{0, 1}, {1, 1}, {2, 1}, {0.5, 2}, {0.25, 4}, {1.0 / 64, 64}, {0.01, 100},
	}
	for _, c := range cases {
		if got := SampleStride(c.rate); got != c.want {
			t.Errorf("SampleStride(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
}

func TestCaptureStrideDeterministic(t *testing.T) {
	c := NewCapture(Config{SampleRate: 0.25, MaxRecords: 64})
	sampled := 0
	for i := 0; i < 64; i++ {
		if c.ShouldSample() {
			sampled++
		}
	}
	if sampled != 16 {
		t.Fatalf("sampled %d of 64 at rate 1/4, want 16", sampled)
	}
}

func TestCaptureBounded(t *testing.T) {
	c := NewCapture(Config{MaxRecords: 4})
	for i := 0; i < 10; i++ {
		r := testRecord(i)
		c.Add(&r)
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := c.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	l := c.Snapshot()
	if len(l.Records) != 4 {
		t.Fatalf("snapshot has %d records, want 4", len(l.Records))
	}
	for i, r := range l.Records {
		if r.TraceSeq != uint64(i) {
			t.Fatalf("record %d out of capture order: seq %d", i, r.TraceSeq)
		}
		if r.OffsetNs < 0 {
			t.Fatalf("record %d has negative offset", i)
		}
	}
}

func TestCaptureConcurrent(t *testing.T) {
	c := NewCapture(Config{MaxRecords: 128})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				if c.ShouldSample() {
					r := testRecord(g*32 + i)
					c.Add(&r)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got != 128 {
		t.Fatalf("Len = %d, want 128", got)
	}
	if got := c.Dropped(); got != 8*32-128 {
		t.Fatalf("Dropped = %d, want %d", got, 8*32-128)
	}
}

func TestLogRoundTripByteIdentical(t *testing.T) {
	l := &Log{
		Version:     FormatVersion,
		Fingerprint: "deadbeef01234567",
		Dim:         3,
	}
	for i := 0; i < 17; i++ {
		r := testRecord(i)
		r.OffsetNs = int64(i) * 1_000_000
		l.Records = append(l.Records, r)
	}
	var a bytes.Buffer
	if _, err := l.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLog(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint != l.Fingerprint || back.Dim != l.Dim || len(back.Records) != len(l.Records) {
		t.Fatalf("header mismatch after round trip: %+v", back)
	}
	var b bytes.Buffer
	if _, err := back.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("re-serialized log differs: %d vs %d bytes", a.Len(), b.Len())
	}
	for i := range l.Records {
		got, want := back.Records[i], l.Records[i]
		if got.LatencyNs != want.LatencyNs || got.Projected != want.Projected ||
			got.K != want.K || got.Mode != want.Mode || got.VisitFrac != want.VisitFrac {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, got, want)
		}
	}
}

func TestReadLogRejectsGarbage(t *testing.T) {
	if _, err := ReadLog(bytes.NewReader([]byte("VAQDxxxxxxxxxxx"))); err == nil {
		t.Fatal("wrong magic accepted")
	}
	var buf bytes.Buffer
	l := &Log{Fingerprint: "fp", Dim: 2}
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // version
	if _, err := ReadLog(bytes.NewReader(raw)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := ReadLog(bytes.NewReader(buf.Bytes()[:6])); err == nil {
		t.Fatal("truncated log accepted")
	}
}

// hostileLogs are well-formed .vaqwl headers whose length fields promise
// far more than the stream holds: 2^28-1 records with none present, and
// one record claiming a 2^24-1-entry query with no payload.
func hostileLogs() map[string][]byte {
	header := func(count uint32) []byte {
		b := []byte(logMagic)
		b = binary.LittleEndian.AppendUint32(b, FormatVersion)
		b = binary.LittleEndian.AppendUint16(b, 0) // empty fingerprint
		b = binary.LittleEndian.AppendUint32(b, 3) // dim
		b = binary.LittleEndian.AppendUint32(b, 0) // shards
		return binary.LittleEndian.AppendUint32(b, count)
	}
	rec := header(1)
	rec = append(rec, make([]byte, 8+8+8+4+4+8+4+1)...) // fixed record fields
	rec = binary.LittleEndian.AppendUint32(rec, maxVecLen-1)
	return map[string][]byte{
		"huge count": header(maxRecords - 1),
		"huge qlen":  rec,
	}
}

// TestReadLogHostileLengthsBounded pins that ReadLog allocates no more than
// the stream backs: each hostile header must fail with an error, not an
// out-of-memory crash, and cost well under 16 MiB of allocation.
func TestReadLogHostileLengthsBounded(t *testing.T) {
	for name, raw := range hostileLogs() {
		t.Run(name, func(t *testing.T) {
			if name == "huge count" && len(raw) != 22 {
				t.Fatalf("header is %d bytes, want 22", len(raw))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadLog(bytes.NewReader(raw))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("hostile log accepted")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
				t.Fatalf("ReadLog allocated %d bytes on a %d-byte input", grew, len(raw))
			}
		})
	}
}

func TestLogSaveLoad(t *testing.T) {
	path := t.TempDir() + "/w.vaqwl"
	l := &Log{Fingerprint: "fp01", Dim: 3, Records: []Record{testRecord(0), testRecord(1)}}
	if err := l.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint != "fp01" || len(back.Records) != 2 {
		t.Fatalf("loaded log mismatch: %+v", back)
	}
}

func TestReplayIdentical(t *testing.T) {
	l := &Log{Dim: 3}
	for i := 0; i < 20; i++ {
		l.Records = append(l.Records, testRecord(i))
	}
	run := func(r *Record) ([]int32, []float32, error) {
		return append([]int32(nil), r.IDs...), append([]float32(nil), r.Dists...), nil
	}
	rep, diffs, err := Replay(l, run, Options{Thresholds: Thresholds{MinOverlap: 1, MaxDistDrift: 0, DistDriftSet: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("identical replay failed thresholds: %v", rep.Violations)
	}
	if rep.MeanOverlap != 1 || rep.WorstOverlap != 1 || rep.MaxDistDrift != 0 {
		t.Fatalf("identical replay not exact: %+v", rep)
	}
	if rep.ExactMatches != len(l.Records) {
		t.Fatalf("ExactMatches = %d, want %d", rep.ExactMatches, len(l.Records))
	}
	if len(diffs) != len(l.Records) {
		t.Fatalf("got %d diffs", len(diffs))
	}
}

func TestReplayDivergence(t *testing.T) {
	l := &Log{Dim: 3, Records: []Record{
		{K: 2, Query: []float32{1}, IDs: []int32{1, 2}, Dists: []float32{1, 2}},
		{K: 2, Query: []float32{2}, IDs: []int32{3, 4}, Dists: []float32{1, 2}},
	}}
	run := func(r *Record) ([]int32, []float32, error) {
		if r.IDs[0] == 1 {
			return []int32{1, 9}, []float32{1.1, 5}, nil // half overlap, 10% drift on id 1
		}
		return []int32{3, 4}, []float32{1, 2}, nil
	}
	rep, _, err := Replay(l, run, Options{Thresholds: Thresholds{MinOverlap: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("divergent replay passed a MinOverlap=1 gate")
	}
	if want := 0.75; rep.MeanOverlap != want {
		t.Fatalf("MeanOverlap = %v, want %v", rep.MeanOverlap, want)
	}
	if rep.WorstOverlap != 0.5 || rep.WorstQuery != 0 {
		t.Fatalf("worst = %v at %d, want 0.5 at 0", rep.WorstOverlap, rep.WorstQuery)
	}
	if rep.MaxDistDrift < 0.0999 || rep.MaxDistDrift > 0.1001 {
		t.Fatalf("MaxDistDrift = %v, want ~0.1", rep.MaxDistDrift)
	}
	if rep.ExactMatches != 1 {
		t.Fatalf("ExactMatches = %d, want 1", rep.ExactMatches)
	}
}

func TestReplayErrorsCountAndGate(t *testing.T) {
	l := &Log{Records: []Record{testRecord(0)}}
	run := func(r *Record) ([]int32, []float32, error) { return nil, nil, fmt.Errorf("boom") }
	rep, diffs, err := Replay(l, run, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 1 || rep.Passed() {
		t.Fatalf("errored replay must fail: %+v", rep)
	}
	if diffs[0].Err == nil {
		t.Fatal("diff lost the error")
	}
}

func TestReplayPaced(t *testing.T) {
	l := &Log{Records: []Record{
		{OffsetNs: 0, IDs: []int32{1}, Dists: []float32{1}},
		{OffsetNs: int64(30 * time.Millisecond), IDs: []int32{1}, Dists: []float32{1}},
	}}
	run := func(r *Record) ([]int32, []float32, error) { return r.IDs, r.Dists, nil }
	start := time.Now()
	if _, _, err := Replay(l, run, Options{Paced: true}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("paced replay finished in %v, want >= ~30ms", el)
	}
}

func TestPercentile(t *testing.T) {
	d := []time.Duration{5, 1, 4, 2, 3}
	if p := percentile(d, 0.5); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile(d, 0.99); p != 5 {
		t.Fatalf("p99 = %v", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
}

func TestNilCaptureSafe(t *testing.T) {
	var c *Capture
	if c.ShouldSample() {
		t.Fatal("nil capture sampled")
	}
	c.Add(&Record{})
	if c.Len() != 0 || c.Dropped() != 0 || c.Snapshot() != nil || c.Stride() != 0 {
		t.Fatal("nil capture not inert")
	}
}

func TestCaptureRingKeepsNewest(t *testing.T) {
	c := NewCapture(Config{MaxRecords: 4, Ring: true})
	for i := 0; i < 10; i++ {
		r := testRecord(i)
		c.Add(&r)
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("ring Len = %d, want 4", got)
	}
	if got := c.Dropped(); got != 6 {
		t.Fatalf("ring Dropped = %d, want 6 overwrites", got)
	}
	log := c.Snapshot()
	if len(log.Records) != 4 {
		t.Fatalf("ring snapshot has %d records, want 4", len(log.Records))
	}
	// The newest 4 records are 6..9, oldest first.
	for i, r := range log.Records {
		if want := uint64(6 + i); r.TraceSeq != want {
			t.Fatalf("ring record %d has seq %d, want %d", i, r.TraceSeq, want)
		}
	}
	for i := 1; i < len(log.Records); i++ {
		if log.Records[i].OffsetNs < log.Records[i-1].OffsetNs {
			t.Fatalf("ring snapshot out of offset order at %d", i)
		}
	}
}

func TestCaptureRingUnwrappedMatchesBounded(t *testing.T) {
	c := NewCapture(Config{MaxRecords: 8, Ring: true})
	for i := 0; i < 5; i++ {
		r := testRecord(i)
		c.Add(&r)
	}
	log := c.Snapshot()
	if len(log.Records) != 5 || c.Dropped() != 0 {
		t.Fatalf("unwrapped ring: %d records, %d dropped", len(log.Records), c.Dropped())
	}
	for i, r := range log.Records {
		if r.TraceSeq != uint64(i) {
			t.Fatalf("unwrapped ring record %d has seq %d", i, r.TraceSeq)
		}
	}
}

func TestCaptureRingConcurrent(t *testing.T) {
	c := NewCapture(Config{MaxRecords: 16, Ring: true})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r := testRecord(g*500 + i)
				c.Add(&r)
			}
		}(g)
	}
	wg.Wait()
	log := c.Snapshot()
	if len(log.Records) != 16 {
		t.Fatalf("concurrent ring snapshot has %d records, want 16", len(log.Records))
	}
	if got := c.Sampled(); got != 2000 {
		t.Fatalf("Sampled = %d, want 2000", got)
	}
}
