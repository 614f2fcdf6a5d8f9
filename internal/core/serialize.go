package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"time"

	"vaq/internal/linalg"
	"vaq/internal/metrics"
	"vaq/internal/pca"
	"vaq/internal/quantizer"
	"vaq/internal/vec"
)

// Serialization format (little-endian):
//
//	magic "VAQI", version u16
//	config block (fixed-width fields; v2 appends a layout word, always 0)
//	pca: eigenvalues []f64, components Dense, hasMean u8 [+ mean []f64]
//	layout: m u32, lengths []u32, bits []u32, ratios []f64, subVar []f64
//	codebooks: m matrices
//	codes: n u64, m u32, data []u16
//	ti: prefixSubspaces u32, centroids Matrix, clusters: count u32,
//	    then per cluster: len u32, entries (id u32, dist f32)
//
// The codes are always stored canonically (row-major, original id order);
// the blocked scan store is a deterministic function of the codes and the
// TI structure, so it is rebuilt on load rather than serialized. The v2
// layout word once selected between the blocked and a row-major scan (0
// and 1); both scans answer identically, so Read accepts either value and
// every stream — v1, which predates the word, included — loads onto the
// blocked store.
//
// Codebooks are written in their in-memory row order, which since the
// bounded encoder is ascending by first coordinate. The format does not
// promise it: Read checks each book, and a stream whose books are in any
// other order loads and answers identically, with Add encoding against
// those books by linear scan.
var magicIndex = [4]byte{'V', 'A', 'Q', 'I'}

const indexVersion = 2

// WriteTo serializes the index so it can be reloaded without retraining.
// Safe to call concurrently with queries, Diagnose and Add: it writes the
// state published when it was called, whole.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	st := ix.state.Load()
	start := time.Now()
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	err := ix.writeBody(bw, indexVersion, st)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil && ix.cfg.Logger != nil {
		ix.cfg.Logger.Info("vaq.serialize",
			slog.Int("n", st.n),
			slog.Int64("bytes", cw.n),
			slog.Duration("total", time.Since(start)))
	}
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func writeF64(w io.Writer, v float64) error { return writeU64(w, math.Float64bits(v)) }

func readF64(r io.Reader) (float64, error) {
	u, err := readU64(r)
	return math.Float64frombits(u), err
}

// writeBody emits the serialized index, in state st, at the requested
// format version. Version 1 (the format without the layout word) is kept
// writable so tests can prove legacy streams still load.
func (ix *Index) writeBody(w io.Writer, version uint64, st *state) error {
	if _, err := w.Write(magicIndex[:]); err != nil {
		return err
	}
	if err := writeU64(w, version); err != nil {
		return err
	}
	// Config (only the fields needed to answer queries identically).
	cfg := ix.cfg
	vals := []uint64{
		uint64(cfg.NumSubspaces), uint64(cfg.Budget), uint64(cfg.MinBits),
		uint64(cfg.MaxBits), uint64(cfg.TIClusters), uint64(cfg.TIPrefixSubspaces),
		uint64(cfg.EACheckEvery), uint64(cfg.Seed), boolU64(cfg.NonUniform),
		boolU64(cfg.DisablePartialBalance), boolU64(cfg.CenterPCA), uint64(cfg.Alloc),
	}
	if version >= 2 {
		vals = append(vals, 0) // layout word
	}
	for _, v := range vals {
		if err := writeU64(w, v); err != nil {
			return err
		}
	}
	if err := writeF64(w, cfg.TargetVariance); err != nil {
		return err
	}
	if err := writeF64(w, cfg.DefaultVisitFrac); err != nil {
		return err
	}
	// PCA model.
	if err := linalg.WriteFloat64s(w, ix.model.Eigenvalues); err != nil {
		return err
	}
	if _, err := ix.model.Components.WriteTo(w); err != nil {
		return err
	}
	hasMean := uint64(0)
	if ix.model.Mean != nil {
		hasMean = 1
	}
	if err := writeU64(w, hasMean); err != nil {
		return err
	}
	if hasMean == 1 {
		if err := linalg.WriteFloat64s(w, ix.model.Mean); err != nil {
			return err
		}
	}
	// Layout.
	m := ix.cb.Sub.M()
	if err := writeU64(w, uint64(m)); err != nil {
		return err
	}
	for _, l := range ix.cb.Sub.Lengths {
		if err := writeU64(w, uint64(l)); err != nil {
			return err
		}
	}
	for _, b := range ix.bits {
		if err := writeU64(w, uint64(b)); err != nil {
			return err
		}
	}
	if err := linalg.WriteFloat64s(w, ix.ratios); err != nil {
		return err
	}
	if err := linalg.WriteFloat64s(w, ix.subVar); err != nil {
		return err
	}
	// Codebooks.
	for _, book := range ix.cb.Books {
		if _, err := book.WriteTo(w); err != nil {
			return err
		}
	}
	// Codes.
	if err := writeU64(w, uint64(st.codes.N)); err != nil {
		return err
	}
	if err := writeU64(w, uint64(st.codes.M)); err != nil {
		return err
	}
	buf := make([]byte, 2*len(st.codes.Data))
	for i, c := range st.codes.Data {
		binary.LittleEndian.PutUint16(buf[2*i:], c)
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	// TI structure.
	if err := writeU64(w, uint64(st.ti.prefixSubspaces)); err != nil {
		return err
	}
	if _, err := st.ti.centroids.WriteTo(w); err != nil {
		return err
	}
	if err := writeU64(w, uint64(len(st.ti.clusters))); err != nil {
		return err
	}
	for _, members := range st.ti.clusters {
		if err := writeU64(w, uint64(len(members))); err != nil {
			return err
		}
		eb := make([]byte, 8*len(members))
		for i, e := range members {
			binary.LittleEndian.PutUint32(eb[8*i:], uint32(e.id))
			binary.LittleEndian.PutUint32(eb[8*i+4:], math.Float32bits(e.dist))
		}
		if _, err := w.Write(eb); err != nil {
			return err
		}
	}
	// Trailer.
	return writeU64(w, uint64(ix.queryDim))
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ReadLogged is Read with structured logging: the loaded index adopts l as
// its maintenance logger (serialized streams carry no logger — it is a
// runtime knob) and the load itself is logged. nil l behaves like Read.
func ReadLogged(r io.Reader, l *slog.Logger) (*Index, error) {
	start := time.Now()
	ix, err := Read(r)
	if err != nil {
		if l != nil {
			l.Error("vaq.read", slog.String("error", err.Error()))
		}
		return nil, err
	}
	ix.cfg.Logger = l
	if l != nil {
		l.Info("vaq.read",
			slog.Int("n", ix.Len()),
			slog.Int("dim", ix.queryDim),
			slog.Int("subspaces", ix.cb.Sub.M()),
			slog.Duration("total", time.Since(start)))
	}
	return ix, nil
}

// Read deserializes an index written by WriteTo.
func Read(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading index magic: %w", err)
	}
	if magic != magicIndex {
		return nil, errors.New("core: bad index magic")
	}
	version, err := readU64(br)
	if err != nil {
		return nil, err
	}
	if version < 1 || version > indexVersion {
		return nil, fmt.Errorf("core: unsupported index version %d", version)
	}
	var cfgVals [12]uint64
	for i := range cfgVals {
		if cfgVals[i], err = readU64(br); err != nil {
			return nil, err
		}
	}
	cfg := Config{
		NumSubspaces:          int(cfgVals[0]),
		Budget:                int(cfgVals[1]),
		MinBits:               int(cfgVals[2]),
		MaxBits:               int(cfgVals[3]),
		TIClusters:            int(cfgVals[4]),
		TIPrefixSubspaces:     int(cfgVals[5]),
		EACheckEvery:          int(cfgVals[6]),
		Seed:                  int64(cfgVals[7]),
		NonUniform:            cfgVals[8] == 1,
		DisablePartialBalance: cfgVals[9] == 1,
		CenterPCA:             cfgVals[10] == 1,
		Alloc:                 AllocStrategy(cfgVals[11]),
	}
	if version >= 2 {
		layout, err := readU64(br)
		if err != nil {
			return nil, err
		}
		if layout > 1 {
			return nil, fmt.Errorf("core: unknown layout word %d", layout)
		}
	}
	if cfg.TargetVariance, err = readF64(br); err != nil {
		return nil, err
	}
	if cfg.DefaultVisitFrac, err = readF64(br); err != nil {
		return nil, err
	}
	// PCA model.
	eigenvalues, err := linalg.ReadFloat64s(br)
	if err != nil {
		return nil, fmt.Errorf("core: eigenvalues: %w", err)
	}
	components, err := linalg.ReadDense(br)
	if err != nil {
		return nil, fmt.Errorf("core: components: %w", err)
	}
	model := &pca.Model{Dim: components.Rows, Eigenvalues: eigenvalues, Components: components}
	hasMean, err := readU64(br)
	if err != nil {
		return nil, err
	}
	if hasMean == 1 {
		if model.Mean, err = linalg.ReadFloat64s(br); err != nil {
			return nil, err
		}
	}
	// Layout.
	mU, err := readU64(br)
	if err != nil {
		return nil, err
	}
	m := int(mU)
	if m <= 0 || m > 1<<16 {
		return nil, fmt.Errorf("core: implausible subspace count %d", m)
	}
	lengths := make([]int, m)
	for i := range lengths {
		v, err := readU64(br)
		if err != nil {
			return nil, err
		}
		lengths[i] = int(v)
	}
	bits := make([]int, m)
	for i := range bits {
		v, err := readU64(br)
		if err != nil {
			return nil, err
		}
		bits[i] = int(v)
	}
	ratios, err := linalg.ReadFloat64s(br)
	if err != nil {
		return nil, err
	}
	subVar, err := linalg.ReadFloat64s(br)
	if err != nil {
		return nil, err
	}
	sub, err := quantizer.FromLengths(lengths)
	if err != nil {
		return nil, err
	}
	books := make([]*vec.Matrix, m)
	for i := range books {
		if books[i], err = vec.ReadMatrix(br); err != nil {
			return nil, fmt.Errorf("core: codebook %d: %w", i, err)
		}
	}
	// Checks each book's row order: books in canonical order get the
	// bounded encoder, any other stream the linear scan.
	cb := quantizer.NewCodebooks(sub, bits, books)
	// Codes.
	nU, err := readU64(br)
	if err != nil {
		return nil, err
	}
	mCodes, err := readU64(br)
	if err != nil {
		return nil, err
	}
	if int(mCodes) != m {
		return nil, fmt.Errorf("core: code width %d != %d subspaces", mCodes, m)
	}
	n := int(nU)
	if n < 0 || n > 1<<34 {
		return nil, fmt.Errorf("core: implausible vector count %d", n)
	}
	codes := quantizer.NewCodes(n, m)
	buf := make([]byte, 2*len(codes.Data))
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("core: codes: %w", err)
	}
	for i := range codes.Data {
		codes.Data[i] = binary.LittleEndian.Uint16(buf[2*i:])
	}
	// TI structure.
	prefixU, err := readU64(br)
	if err != nil {
		return nil, err
	}
	centroids, err := vec.ReadMatrix(br)
	if err != nil {
		return nil, fmt.Errorf("core: TI centroids: %w", err)
	}
	clusterCount, err := readU64(br)
	if err != nil {
		return nil, err
	}
	if clusterCount > uint64(n)+1 {
		return nil, fmt.Errorf("core: implausible TI cluster count %d", clusterCount)
	}
	ti := &tiIndex{
		prefixSubspaces: int(prefixU),
		prefixDim:       centroids.Cols,
		centroids:       centroids,
		clusters:        make([][]tiEntry, clusterCount),
	}
	for c := range ti.clusters {
		lenU, err := readU64(br)
		if err != nil {
			return nil, err
		}
		if lenU > uint64(n) {
			return nil, fmt.Errorf("core: implausible TI cluster size %d", lenU)
		}
		members := make([]tiEntry, lenU)
		eb := make([]byte, 8*lenU)
		if _, err := io.ReadFull(br, eb); err != nil {
			return nil, err
		}
		for i := range members {
			members[i].id = int(binary.LittleEndian.Uint32(eb[8*i:]))
			members[i].dist = math.Float32frombits(binary.LittleEndian.Uint32(eb[8*i+4:]))
		}
		ti.clusters[c] = members
	}
	queryDim, err := readU64(br)
	if err != nil {
		return nil, err
	}
	// The blocked store is derived, not stored: rebuild it here so the
	// loaded index scans exactly like a freshly built one.
	blocked := buildBlockedStore(cb, codes, ti)
	ix := &Index{
		cfg:      cfg,
		model:    model,
		ratios:   ratios,
		subVar:   subVar,
		bits:     bits,
		cb:       cb,
		queryDim: int(queryDim),
		// DisableMetrics is a runtime knob, not part of the on-disk
		// format: loaded indexes always get a fresh registry (sized for
		// pruning attribution and drift gauges; see metrics.NewSized).
		// The diagnostics baseline and drift state are runtime-only too:
		// a loaded index Diagnoses as Partial until retrained.
		metrics: metrics.NewSized(m+1, m),
	}
	ix.state.Store(&state{n: n, codes: codes, ti: ti, blocked: blocked})
	return ix, nil
}

// Save writes the index to a file.
func (ix *Index) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads an index from a file.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
