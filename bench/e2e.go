package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"vaq"
)

// index is what the benchmark uses of the public vaq package; *vaq.Index
// and *vaq.ShardedIndex both provide it.
type index interface {
	SearchWith(q []float32, k int, opt vaq.SearchOptions) ([]vaq.Result, error)
	SearchBatch(queries [][]float32, k int, opt vaq.SearchOptions, workers int) ([][]vaq.Result, error)
	Add(vectors [][]float32) (int, error)
	WriteTo(w io.Writer) (int64, error)
	Len() int

	EnableTracing(cfg vaq.TraceConfig) *vaq.Tracer
	DisableTracing()
	EnableCapture(cfg vaq.CaptureConfig) *vaq.WorkloadCapture
	DisableCapture()
	EnableHistory(name string, cfg vaq.HistoryConfig) (*vaq.HistoryCollector, error)
	DisableHistory()
	EnableFlightRecorder(name string, cfg vaq.BundleConfig) (*vaq.FlightRecorder, error)
	DisableFlightRecorder() error
}

const (
	// windows per timed phase: each metric is a median across them, and
	// their quartiles are the dispersion one run carries on its own.
	windows = 12
	// shares of -seconds given to the three timed phases.
	shareSingle, shareBatch, shareMixed = 0.35, 0.25, 0.40
)

// workers is the load the one benchmark process may generate.
func workers() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

func build(cfg vaq.Config, train, data [][]float32) (index, error) {
	if cfg.Shards > 0 {
		ix, err := vaq.BuildShardedWithTrainingSet(train, data, cfg)
		if err != nil {
			return nil, err
		}
		return ix, nil
	}
	ix, err := vaq.BuildWithTrainingSet(train, data, cfg)
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// load reads serialized bytes back through the public package.
func load(b []byte, sharded bool) (index, error) {
	if sharded {
		ix, err := vaq.ReadSharded(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		return ix, nil
	}
	ix, err := vaq.Read(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// client is the one closed-loop caller of phase single: a reusable
// Searcher where the index type has one.
func client(ix index, w workload) func([]float32) ([]vaq.Result, error) {
	opt := w.options()
	if u, ok := ix.(*vaq.Index); ok {
		s := u.NewSearcher()
		return func(q []float32) ([]vaq.Result, error) { return s.Search(q, w.k, opt) }
	}
	return func(q []float32) ([]vaq.Result, error) { return ix.SearchWith(q, w.k, opt) }
}

// checker counts operations attempted and failed (an error, or an answer
// that breaks a correctness rule) and keeps the first few reasons.
type checker struct {
	attempted, failed int
	notes             []string
	stamp             []uint32 // id → epoch of the answer that last held it
	epoch             uint32
}

func newChecker(maxIDs int) *checker { return &checker{stamp: make([]uint32, maxIDs)} }

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// op counts one operation that has no answer to inspect.
func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

// answer counts one query and checks its result: no error, exactly k
// results, distances non-decreasing, ids unique and below n.
func (c *checker) answer(what string, res []vaq.Result, err error, k, n int) {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", what, err)
		return
	}
	if len(res) != k {
		c.fail("%s: %d results, want %d", what, len(res), k)
		return
	}
	c.epoch++
	for i, r := range res {
		switch {
		case r.ID < 0 || r.ID >= n:
			c.fail("%s: id %d out of range [0,%d)", what, r.ID, n)
			return
		case c.stamp[r.ID] == c.epoch:
			c.fail("%s: id %d returned twice", what, r.ID)
			return
		case i > 0 && r.Dist < res[i-1].Dist:
			c.fail("%s: distances decrease at rank %d", what, i)
			return
		}
		c.stamp[r.ID] = c.epoch
	}
}

func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, n := range o.notes {
		if len(c.notes) < 8 {
			c.notes = append(c.notes, n)
		}
	}
}

func sameAnswer(a, b []vaq.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func resultIDs(res []vaq.Result) []int32 {
	ids := make([]int32, len(res))
	for i, r := range res {
		ids[i] = int32(r.ID)
	}
	return ids
}

// env is one set-up: generated inputs, ground truth and a built, warmed
// index.
type env struct {
	sc   scale
	w    workload
	seed int64

	base, train [][]float32
	stds        []float64
	singleSrc   *querySource // its first w.recallQ queries are recallQ
	recallQ     [][]float32
	truth       [][]int32

	ix     index
	search func([]float32) ([]vaq.Result, error)

	setupS, buildS, heapMB float64
	warmLatency            time.Duration // median of the warm-up queries
}

func (e *env) source(stream int) *querySource {
	return &querySource{rng: newStream(e.seed, stream), base: e.base, stds: e.stds}
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup generates data and ground truth, builds the index and warms it up.
func setup(sc scale, w workload, seed int64) (*env, error) {
	start := time.Now()
	e := &env{sc: sc, w: w, seed: seed}
	e.base = rows(w.n, dim)
	randomWalk(newStream(seed, streamBase), e.base, smoothness)
	e.train = e.base[:w.trainN]
	e.stds = columnStds(e.base)
	e.singleSrc = e.source(streamSingle)
	e.recallQ = e.singleSrc.take(w.recallQ)
	e.truth = groundTruth(e.base, e.recallQ, w.k, workers())

	before := heapAlloc()
	t := time.Now()
	ix, err := build(sc.config(w), e.train, e.base)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	e.buildS = time.Since(t).Seconds()
	e.heapMB = (float64(heapAlloc()) - float64(before)) / (1 << 20)
	e.ix = ix
	e.search = client(ix, w)

	lat := make([]float64, 0, sc.warmup)
	for _, q := range e.source(streamWarmup).take(sc.warmup) {
		t := time.Now()
		if _, err := e.search(q); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		lat = append(lat, float64(time.Since(t)))
	}
	e.warmLatency = time.Duration(median(lat))
	e.setupS = time.Since(start).Seconds()
	return e, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// singleResult is phase single: one closed-loop client, per-query wall
// times in µs, split into equal windows.
type singleResult struct {
	lat     []float64
	p50     []float64 // per window
	p99     []float64
	cpu     []float64 // CPU µs per query, per window
	wall    time.Duration
	answers [][]int32 // ids answered to recallQ
}

// singlePhase runs phase single one window at a time, so its windows can
// alternate with those of phase batch: a disturbance of a few seconds then
// slows some windows of both rather than every window of one.
type singlePhase struct {
	e         *env
	c         *checker
	queries   [][]float32
	perWindow int
	r         singleResult
}

func (e *env) newSingle(seconds float64, c *checker) *singlePhase {
	perWindow := int(seconds / windows / e.warmLatency.Seconds())
	if min := (e.w.recallQ + windows - 1) / windows; perWindow < min {
		perWindow = min
	}
	total := perWindow * windows
	return &singlePhase{
		e: e, c: c, perWindow: perWindow,
		queries: append(append([][]float32(nil), e.recallQ...), e.singleSrc.take(total-len(e.recallQ))...),
		r:       singleResult{lat: make([]float64, 0, total), answers: make([][]int32, len(e.recallQ))},
	}
}

func (p *singlePhase) window(w int) {
	e, r := p.e, &p.r
	cpu0, t0 := cpuTime(), time.Now()
	for i := w * p.perWindow; i < (w+1)*p.perWindow; i++ {
		t := time.Now()
		res, err := e.search(p.queries[i])
		r.lat = append(r.lat, float64(time.Since(t))/1e3)
		p.c.answer("single", res, err, e.w.k, e.w.n)
		if i < len(r.answers) {
			r.answers[i] = resultIDs(res)
		}
	}
	r.wall += time.Since(t0)
	r.cpu = append(r.cpu, float64(cpuTime()-cpu0)/1e3/float64(p.perWindow))
	s := sortedCopy(r.lat[w*p.perWindow:])
	r.p50 = append(r.p50, percentile(s, 0.50))
	r.p99 = append(r.p99, percentile(s, 0.99))
}

// batchPhase pushes blocks through SearchBatch, one window at a time, and
// collects queries per second per window.
type batchPhase struct {
	e      *env
	c      *checker
	src    *querySource
	blocks int // per window
	qps    []float64
}

func (p *batchPhase) timed(block [][]float32) ([][]vaq.Result, time.Duration) {
	e := p.e
	t := time.Now()
	res, err := e.ix.SearchBatch(block, e.w.k, e.w.options(), workers())
	d := time.Since(t)
	if err != nil || len(res) != len(block) {
		p.c.op(false, "batch: %d answers for %d queries: %v", len(res), len(block), err)
		return nil, d
	}
	for _, r := range res {
		p.c.answer("batch", r, nil, e.w.k, e.w.n)
	}
	return res, d
}

func (e *env) newBatch(seconds float64, c *checker) *batchPhase {
	p := &batchPhase{e: e, c: c, src: e.source(streamBatch)}
	// The first block is not timed into a window: it sizes the windows and
	// is answered again one query at a time, which must give the same ids.
	first := p.src.take(e.sc.batch)
	res, d := p.timed(first)
	for i := range res {
		one, err := e.ix.SearchWith(first[i], e.w.k, e.w.options())
		c.op(err == nil && sameAnswer(one, res[i]), "batch answer %d differs from Search: %v", i, err)
	}
	p.blocks = int(math.Round(seconds / windows / d.Seconds()))
	if p.blocks < 1 {
		p.blocks = 1
	}
	return p
}

func (p *batchPhase) window() {
	var wall time.Duration
	for b := 0; b < p.blocks; b++ {
		_, d := p.timed(p.src.take(p.e.sc.batch))
		wall += d
	}
	p.qps = append(p.qps, float64(p.blocks*p.e.sc.batch)/wall.Seconds())
}

// mixedResult is phase mixed: an open-loop query stream beside one writer.
type mixedResult struct {
	lat   []float64 // µs from each query's due time
	lag   []float64 // µs the generator ran late
	addMS []float64 // wall ms per Add call
}

// sleepUntil returns `at` after start. The sleeping timer overshoots by
// up to a millisecond, which would dominate a query's latency from its due
// time, so the last stretch is spun, yielding to other goroutines.
func sleepUntil(start time.Time, at time.Duration) {
	const spin = 2 * time.Millisecond
	if d := at - time.Since(start); d > spin {
		time.Sleep(d - spin)
	}
	for time.Since(start) < at {
		runtime.Gosched()
	}
}

// mixedPhase runs phase mixed in slices, one per set-up, each on that
// set-up's own index (which it grows and the next set-up replaces).
type mixedPhase struct {
	c       *checker
	queries *querySource
	heldOut *rand.Rand
	r       mixedResult
}

func (e *env) newMixed(c *checker) *mixedPhase {
	return &mixedPhase{c: c, queries: e.source(streamMixed), heldOut: newStream(e.seed, streamHeldOut)}
}

// mixedAdds is the number of Add calls a slice of `seconds` makes.
func (sc scale) mixedAdds(seconds float64) int {
	return int(seconds * 1000 / float64(sc.addEvery))
}

func (p *mixedPhase) slice(e *env, seconds float64) {
	c, r, sc := p.c, &p.r, e.sc
	loop := openLoop{interval: time.Second / time.Duration(sc.mixedQPS)}
	queries := p.queries.take(int(seconds * float64(sc.mixedQPS)))
	adds := sc.mixedAdds(seconds)
	heldOut := rows(adds*sc.addBatch, dim)
	randomWalk(p.heldOut, heldOut, smoothness)
	every := time.Duration(sc.addEvery) * time.Millisecond
	maxIDs := e.w.n + len(heldOut)

	firstIDs := make([]int, adds)
	writerCheck := newChecker(0)
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < adds; j++ {
			// Half an interval in, so the first Add lands among queries.
			sleepUntil(start, every*time.Duration(j)+every/2)
			t := time.Now()
			first, err := e.ix.Add(heldOut[j*sc.addBatch : (j+1)*sc.addBatch])
			r.addMS = append(r.addMS, float64(time.Since(t))/1e6)
			writerCheck.op(err == nil, "add %d: %v", j, err)
			firstIDs[j] = first
		}
	}()
	for i, q := range queries {
		sleepUntil(start, loop.due(i))
		sent := time.Since(start)
		res, err := e.search(q)
		done := time.Since(start)
		r.lag = append(r.lag, float64(loop.lag(i, sent))/1e3)
		r.lat = append(r.lat, float64(loop.latency(i, done))/1e3)
		c.answer("mixed", res, err, e.w.k, maxIDs)
	}
	wg.Wait()
	c.merge(writerCheck)

	// Every added vector, searched over the whole index, is its own
	// nearest code.
	all := vaq.SearchOptions{VisitFrac: 1}
	for j, first := range firstIDs {
		for i := 0; i < sc.addBatch; i++ {
			res, err := e.ix.SearchWith(heldOut[j*sc.addBatch+i], e.w.k, all)
			ok := err == nil && len(res) > 0 && res[0].ID == first+i
			c.op(ok, "added vector %d is not its own top-1: %v", first+i, err)
		}
	}
	c.op(e.ix.Len() == maxIDs, "index holds %d vectors after adds, want %d", e.ix.Len(), maxIDs)
}

// loads is how often each round reads the serialized index back.
const loads = 8

// persistence serializes the index, reads it back `loads` times and checks
// that the copy answers exactly as the original.
func (e *env) persistence(c *checker) (raw []byte, loadMS []float64) {
	var buf bytes.Buffer
	_, err := e.ix.WriteTo(&buf)
	c.op(err == nil, "WriteTo: %v", err)
	raw = buf.Bytes()
	var back index
	for i := 0; i < loads; i++ {
		t := time.Now()
		back, err = load(raw, e.w.shards > 0)
		loadMS = append(loadMS, float64(time.Since(t))/1e6)
		c.op(err == nil, "Read: %v", err)
	}
	if back == nil {
		return raw, loadMS
	}
	if u, ok := back.(*vaq.Index); ok && e.w.accuracy != vaq.AccuracyExact {
		// The accuracy mode is a runtime knob the stream does not carry.
		c.op(u.SetAccuracyMode(e.w.accuracy) == nil, "SetAccuracyMode on the loaded index")
	}
	opt := e.w.options()
	for i, q := range e.recallQ[:e.sc.roundTrip] {
		a, errA := e.ix.SearchWith(q, e.w.k, opt)
		b, errB := back.SearchWith(q, e.w.k, opt)
		c.op(errA == nil && errB == nil && sameAnswer(a, b), "query %d answers differently after WriteTo/Read", i)
	}
	return raw, loadMS
}

// measured is one run through the public package with no spans recorded.
type measured struct {
	e       *env // the last set-up; its index has been through phase mixed
	check   *checker
	raw     []byte // that index as WriteTo wrote it, before phase mixed
	single  singleResult
	batchN  int
	batch   []float64
	mixed   mixedResult
	metrics map[string]summary
}

// measure runs `setups` rounds. Each round sets up afresh (same seed, so
// the same index) and then runs its share of the windows of every timed
// phase, `seconds` in total over all rounds: the timed windows are spread
// over the whole run, between the set-ups, instead of sitting in one block
// that a few noisy seconds on a shared machine could cover.
func measure(sc scale, w workload, seed int64, seconds float64, setups int) (*measured, error) {
	perRound := seconds * shareMixed / float64(setups)
	m := &measured{check: newChecker(w.n + sc.mixedAdds(perRound)*sc.addBatch)}
	c := m.check
	var single *singlePhase
	var batch *batchPhase
	var mixed *mixedPhase
	var setupS, buildS, loadMS []float64
	for round := 0; round < setups; round++ {
		m.e = nil
		runtime.GC() // the previous round's index is garbage, not baseline
		e, err := setup(sc, w, seed)
		if err != nil {
			return nil, err
		}
		m.e = e
		setupS = append(setupS, e.setupS)
		buildS = append(buildS, e.buildS)
		if round == 0 {
			single, batch, mixed = e.newSingle(seconds*shareSingle, c), e.newBatch(seconds*shareBatch, c), e.newMixed(c)
		}
		single.e, batch.e = e, e
		raw, ms := e.persistence(c)
		m.raw, loadMS = raw, append(loadMS, ms...)
		for w := windows * round / setups; w < windows*(round+1)/setups; w++ {
			single.window(w)
			batch.window()
		}
		mixed.slice(e, perRound)
	}
	m.single, m.batch, m.batchN = single.r, batch.qps, windows*batch.blocks*sc.batch
	m.mixed = mixed.r

	var recall float64
	for i, ids := range m.single.answers {
		recall += recallAt(ids, m.e.truth[i])
	}
	recall /= float64(len(m.single.answers))
	c.op(recall >= w.recallFloor, "recall_at_k %.4f below the floor %.4f", recall, w.recallFloor)

	nq := len(m.single.lat)
	m.metrics = map[string]summary{
		"setup_s":                windowMedian(setupS, "s", len(setupS)),
		"build_s":                quietest(buildS, "s", len(buildS), false),
		"query_p50_us":           quietest(m.single.p50, "us", nq, false),
		"query_p99_us":           quietest(m.single.p99, "us", nq, false),
		"cpu_us_per_query":       quietest(m.single.cpu, "us", nq, false),
		"batch_qps":              quietest(m.batch, "queries/s", m.batchN, true),
		"recall_at_k":            {Value: recall, Unit: "ratio", Q1: recall, Q3: recall, N: len(m.single.answers)},
		"index_bytes_per_vector": scalar(float64(len(m.raw))/float64(w.n), "bytes"),
		"heap_mb":                scalar(m.e.heapMB, "MiB"),
		"load_ms":                quietest(loadMS, "ms", len(loadMS), false),
		"add_batch_p50_ms":       quietest(perChunk(m.mixed.addMS, windows, 0.50), "ms", len(m.mixed.addMS), false),
		"mixed_query_p99_us":     quietest(perChunk(m.mixed.lat, windows, 0.99), "us", len(m.mixed.lat), false),
	}
	return m, nil
}

// perChunk cuts xs, in order, into n equal chunks and returns the
// p-quantile of each.
func perChunk(xs []float64, n int, p float64) []float64 {
	chunk := len(xs) / n
	if chunk == 0 {
		return xs
	}
	per := make([]float64, n)
	for w := range per {
		per[w] = percentile(sortedCopy(xs[w*chunk:(w+1)*chunk]), p)
	}
	return per
}
