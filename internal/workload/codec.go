package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Log is a replayable workload: the capture-time index fingerprint, the
// query dimensionality, and the recorded queries in capture order.
type Log struct {
	// Version is the on-disk format version the log was read from (or
	// FormatVersion for freshly captured logs).
	Version uint32
	// Fingerprint is the capturing index's config fingerprint (the
	// sha256-of-canonical-config scheme of core's Index.ConfigFingerprint,
	// which incident bundles carry too). Replay warns — but does
	// not refuse — when the target index's fingerprint differs: replaying
	// against a rebuild is the point.
	Fingerprint string
	// Dim is the raw query dimensionality of the capturing index.
	Dim int
	// Shards is the shard count of the capturing index: 1 for a sharded
	// build with one shard, >1 for a scatter-gather capture, 0 for an
	// unsharded capture (or any log read from the version-1 format, which
	// predates the field).
	Shards int
	// Records are the captured queries, capture order.
	Records []Record
}

// On-disk .vaqwl format (version 2), everything little-endian:
//
//	magic "VAQW" | u32 version | u16 fplen + fingerprint bytes | u32 dim
//	u32 shards (version >= 2 only) | u32 count, then per record:
//	  u64 offset_ns | u64 latency_ns | u64 trace_seq
//	  u32 k | u32 mode | f64 visit_frac | u32 subspaces | u8 projected
//	  u32 qlen + f32[qlen] query
//	  u32 nres + i32[nres] ids + f32[nres] dists
//
// Version 1 (no shards field) is still read; WriteTo re-emits a log in
// the version it was read from, so the encoding stays a pure function of
// the Log contents (no timestamps, no padding entropy) and read→write
// round-trips byte-identically — the property the round-trip determinism
// test pins. Freshly captured logs are version 2.
const (
	// FormatVersion is the current .vaqwl on-disk version.
	FormatVersion = 2

	logMagic = "VAQW"

	maxFingerprintLen = 1 << 10
	maxRecords        = 1 << 28
	maxVecLen         = 1 << 24

	// readChunk caps how many records or vector entries ReadLog allocates
	// ahead of the bytes that fill them.
	readChunk = 1 << 12
)

// WriteTo serializes the log in .vaqwl format.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if len(l.Fingerprint) > maxFingerprintLen {
		return 0, fmt.Errorf("workload: fingerprint too long (%d bytes)", len(l.Fingerprint))
	}
	if len(l.Records) > maxRecords {
		return 0, fmt.Errorf("workload: too many records (%d)", len(l.Records))
	}
	version := l.Version
	if version == 0 {
		version = FormatVersion
	}
	if version > FormatVersion {
		return 0, fmt.Errorf("workload: cannot write log version %d (have %d)", version, FormatVersion)
	}
	cw.bytes([]byte(logMagic))
	cw.u32(version)
	cw.u16(uint16(len(l.Fingerprint)))
	cw.bytes([]byte(l.Fingerprint))
	cw.u32(uint32(l.Dim))
	if version >= 2 {
		cw.u32(uint32(l.Shards))
	}
	cw.u32(uint32(len(l.Records)))
	for i := range l.Records {
		r := &l.Records[i]
		if len(r.Query) > maxVecLen || len(r.IDs) > maxVecLen || len(r.IDs) != len(r.Dists) {
			return cw.n, fmt.Errorf("workload: record %d has invalid lengths (query %d, ids %d, dists %d)",
				i, len(r.Query), len(r.IDs), len(r.Dists))
		}
		cw.u64(uint64(r.OffsetNs))
		cw.u64(uint64(r.LatencyNs))
		cw.u64(r.TraceSeq)
		cw.u32(uint32(r.K))
		cw.u32(uint32(r.Mode))
		cw.u64(math.Float64bits(r.VisitFrac))
		cw.u32(uint32(r.Subspaces))
		if r.Projected {
			cw.u8(1)
		} else {
			cw.u8(0)
		}
		cw.u32(uint32(len(r.Query)))
		for _, v := range r.Query {
			cw.u32(math.Float32bits(v))
		}
		cw.u32(uint32(len(r.IDs)))
		for _, id := range r.IDs {
			cw.u32(uint32(id))
		}
		for _, d := range r.Dists {
			cw.u32(math.Float32bits(d))
		}
	}
	if cw.err == nil {
		cw.err = cw.w.(*bufio.Writer).Flush()
	}
	return cw.n, cw.err
}

// ReadLog parses a .vaqwl stream.
func ReadLog(rd io.Reader) (*Log, error) {
	cr := &reader{r: bufio.NewReaderSize(rd, 1<<16)}
	magic := cr.bytes(4)
	if cr.err != nil {
		return nil, fmt.Errorf("workload: reading magic: %w", cr.err)
	}
	if string(magic) != logMagic {
		return nil, fmt.Errorf("workload: bad magic %q (not a .vaqwl log)", magic)
	}
	version := cr.u32()
	if cr.err == nil && (version < 1 || version > FormatVersion) {
		return nil, fmt.Errorf("workload: unsupported log version %d (have %d)", version, FormatVersion)
	}
	fplen := int(cr.u16())
	if cr.err == nil && fplen > maxFingerprintLen {
		return nil, fmt.Errorf("workload: fingerprint length %d too large", fplen)
	}
	fp := cr.bytes(fplen)
	dim := int(cr.u32())
	shards := 0
	if version >= 2 {
		shards = int(cr.u32())
	}
	count := int(cr.u32())
	if cr.err == nil && count > maxRecords {
		return nil, fmt.Errorf("workload: record count %d too large", count)
	}
	if cr.err != nil {
		return nil, fmt.Errorf("workload: reading header: %w", cr.err)
	}
	// count and every length below are untrusted until their bytes arrive,
	// so each slice grows by append from at most readChunk entries.
	l := &Log{
		Version:     version,
		Fingerprint: string(fp),
		Dim:         dim,
		Shards:      shards,
		Records:     make([]Record, 0, min(count, readChunk)),
	}
	for i := 0; i < count; i++ {
		l.Records = append(l.Records, Record{})
		r := &l.Records[i]
		r.OffsetNs = int64(cr.u64())
		r.LatencyNs = int64(cr.u64())
		r.TraceSeq = cr.u64()
		r.K = int32(cr.u32())
		r.Mode = int32(cr.u32())
		r.VisitFrac = math.Float64frombits(cr.u64())
		r.Subspaces = int32(cr.u32())
		r.Projected = cr.u8() != 0
		qlen := int(cr.u32())
		if cr.err == nil && qlen > maxVecLen {
			return nil, fmt.Errorf("workload: record %d query length %d too large", i, qlen)
		}
		if cr.err != nil {
			return nil, fmt.Errorf("workload: reading record %d: %w", i, cr.err)
		}
		r.Query = readWords(cr, qlen, math.Float32frombits)
		nres := int(cr.u32())
		if cr.err == nil && nres > maxVecLen {
			return nil, fmt.Errorf("workload: record %d result count %d too large", i, nres)
		}
		if cr.err != nil {
			return nil, fmt.Errorf("workload: reading record %d: %w", i, cr.err)
		}
		r.IDs = readWords(cr, nres, func(v uint32) int32 { return int32(v) })
		r.Dists = readWords(cr, nres, math.Float32frombits)
		if cr.err != nil {
			return nil, fmt.Errorf("workload: reading record %d: %w", i, cr.err)
		}
	}
	return l, nil
}

// Save writes the log to path atomically enough for tooling (temp-free
// direct write; callers needing atomicity can write to a temp file first).
func (l *Log) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := l.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadLog reads a .vaqwl file from disk.
func LoadLog(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLog(f)
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
	buf [8]byte
}

func (c *countingWriter) bytes(b []byte) {
	if c.err != nil {
		return
	}
	n, err := c.w.Write(b)
	c.n += int64(n)
	c.err = err
}

func (c *countingWriter) u8(v uint8) {
	c.buf[0] = v
	c.bytes(c.buf[:1])
}

func (c *countingWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(c.buf[:2], v)
	c.bytes(c.buf[:2])
}

func (c *countingWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(c.buf[:4], v)
	c.bytes(c.buf[:4])
}

func (c *countingWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(c.buf[:8], v)
	c.bytes(c.buf[:8])
}

type reader struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (c *reader) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(c.r, b); err != nil {
		c.err = err
		return nil
	}
	return b
}

func (c *reader) fill(n int) []byte {
	if c.err != nil {
		return c.buf[:n] // zeroed leftovers; callers check err
	}
	if _, err := io.ReadFull(c.r, c.buf[:n]); err != nil {
		c.err = err
		for i := 0; i < n; i++ {
			c.buf[i] = 0
		}
	}
	return c.buf[:n]
}

// readWords reads n little-endian 32-bit words through conv. The result
// grows by append from at most readChunk entries and stops at the first
// short read, so memory tracks the bytes actually delivered (callers check
// c.err).
func readWords[T any](c *reader, n int, conv func(uint32) T) []T {
	out := make([]T, 0, min(n, readChunk))
	for len(out) < n && c.err == nil {
		out = append(out, conv(c.u32()))
	}
	return out
}

func (c *reader) u8() uint8   { return c.fill(1)[0] }
func (c *reader) u16() uint16 { return binary.LittleEndian.Uint16(c.fill(2)) }
func (c *reader) u32() uint32 { return binary.LittleEndian.Uint32(c.fill(4)) }
func (c *reader) u64() uint64 { return binary.LittleEndian.Uint64(c.fill(8)) }
