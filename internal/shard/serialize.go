package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"math"
	"slices"

	"vaq/internal/core"
	"vaq/internal/metrics"
	"vaq/internal/vec"
)

// Sharded container format ("VAQS", version 1): a thin envelope around
// one core v2 stream per shard.
//
//	[4]byte  magic "VAQS"
//	u64      container version (1)
//	u64      shard count S
//	u64      assignment policy
//	u64      next global id
//	S x:
//	  u64    id-mapping length
//	  u32... local-to-global id mapping
//	  u64    core stream byte length
//	  []byte core v2 stream (exactly that many bytes)
//
// Each shard's stream is length-prefixed because core.Read buffers its
// reader and may not consume its segment exactly; the reader side wraps
// each segment in an io.LimitReader and drains the remainder so the next
// shard always starts aligned. With S=1 the payload after the envelope is
// byte-identical to the unsharded index's WriteTo output.
const (
	shardMagic          = "VAQS"
	shardFormatVersion  = 1
	maxReasonableShards = 1 << 16
)

// WriteTo serializes the sharded index. It holds every shard's Add lock
// for the duration so the id mappings and encoded codes form one
// consistent snapshot even under concurrent ingest.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	for _, st := range x.states {
		st.addMu.Lock()
	}
	defer func() {
		for _, st := range x.states {
			st.addMu.Unlock()
		}
	}()
	bw := bufio.NewWriter(w)
	var n int64
	wr := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if _, err := bw.WriteString(shardMagic); err != nil {
		return n, err
	}
	n += int64(len(shardMagic))
	for _, v := range []uint64{shardFormatVersion, uint64(len(x.states)), uint64(x.opts.Policy), uint64(x.nextID.Load())} {
		if err := wr(v); err != nil {
			return n, err
		}
	}
	var buf bytes.Buffer
	for si, st := range x.states {
		ids := *st.ids.Load()
		if err := wr(uint64(len(ids))); err != nil {
			return n, err
		}
		if len(ids) > 0 {
			if err := wr(ids); err != nil {
				return n, err
			}
		}
		buf.Reset()
		if _, err := st.ix.WriteTo(&buf); err != nil {
			return n, fmt.Errorf("shard %d: %w", si, err)
		}
		if err := wr(uint64(buf.Len())); err != nil {
			return n, err
		}
		nn, err := bw.Write(buf.Bytes())
		n += int64(nn)
		if err != nil {
			return n, fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return n, bw.Flush()
}

// Read deserializes a sharded index written by WriteTo. Like the core
// reader, loaded indexes carry fresh telemetry registries and no
// runtime-only configuration (SLOs, capture, recall sampling).
func Read(r io.Reader) (*Index, error) {
	return ReadLogged(r, nil)
}

// ReadLogged is Read with a structured logger attached to the loaded
// index (used for merged-registry SLO breach events configured later).
func ReadLogged(r io.Reader, logger *slog.Logger) (*Index, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("shard: reading magic: %w", err)
	}
	if string(magic[:]) != shardMagic {
		return nil, fmt.Errorf("shard: bad magic %q (want %q)", magic[:], shardMagic)
	}
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var version, shards, policy, nextID uint64
	for _, p := range []*uint64{&version, &shards, &policy, &nextID} {
		if err := rd(p); err != nil {
			return nil, fmt.Errorf("shard: reading header: %w", err)
		}
	}
	if version != shardFormatVersion {
		return nil, fmt.Errorf("shard: unsupported container version %d (want %d)", version, shardFormatVersion)
	}
	if shards == 0 || shards > maxReasonableShards {
		return nil, fmt.Errorf("shard: implausible shard count %d", shards)
	}
	if policy != uint64(PolicyRoundRobin) && policy != uint64(PolicyLeastLoaded) {
		return nil, fmt.Errorf("shard: unknown policy %d", policy)
	}
	// Ids are int32 and every one must lie below nextID.
	if nextID > math.MaxInt32+1 {
		return nil, fmt.Errorf("shard: implausible next id %d", nextID)
	}
	x := &Index{
		opts:   Options{Shards: int(shards), Policy: Policy(policy)},
		logger: logger,
	}
	x.nextID.Store(int64(nextID))
	// Every global id, gathered to check uniqueness once all shards are
	// read.
	var all []int32
	for si := 0; si < int(shards); si++ {
		var idLen uint64
		if err := rd(&idLen); err != nil {
			return nil, fmt.Errorf("shard %d: reading id count: %w", si, err)
		}
		if idLen > nextID {
			return nil, fmt.Errorf("shard %d: implausible id count %d", si, idLen)
		}
		ids, err := vec.ReadLittleEndian[int32](r, idLen)
		if err != nil {
			return nil, fmt.Errorf("shard %d: reading id mapping: %w", si, err)
		}
		for _, id := range ids {
			if id < 0 || uint64(id) >= nextID {
				return nil, fmt.Errorf("shard %d: id %d outside [0, %d)", si, id, nextID)
			}
		}
		all = append(all, ids...)
		var blen uint64
		if err := rd(&blen); err != nil {
			return nil, fmt.Errorf("shard %d: reading stream length: %w", si, err)
		}
		lr := io.LimitReader(r, int64(blen))
		ix, err := core.ReadLogged(lr, logger)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
		// core.Read buffers: drain whatever of this shard's segment its
		// bufio did not pull so the next segment starts aligned.
		if _, err := io.Copy(io.Discard, lr); err != nil {
			return nil, fmt.Errorf("shard %d: draining stream: %w", si, err)
		}
		if ix.Len() != int(idLen) {
			return nil, fmt.Errorf("shard %d: id mapping has %d entries, index has %d vectors", si, idLen, ix.Len())
		}
		st := &shardState{ix: ix}
		st.ids.Store(&ids)
		if !monotone(ids) {
			st.unordered.Store(true)
		}
		x.states = append(x.states, st)
	}
	if id, ok := firstRepeat(all, nextID); ok {
		return nil, fmt.Errorf("shard: id %d mapped twice", id)
	}
	x.dim = x.states[0].ix.Dim()
	for si, st := range x.states[1:] {
		if st.ix.Dim() != x.dim {
			return nil, fmt.Errorf("shard %d: dim %d != shard 0 dim %d", si+1, st.ix.Dim(), x.dim)
		}
	}
	m := x.states[0].ix.Codebooks().Sub.M()
	x.reg = metrics.NewSized(m+1, m)
	return x, nil
}

// firstRepeat returns an id that occurs twice in ids, all of which lie in
// [0, nextID). It marks a bitmap over [0, nextID) when that is no larger
// than the ids themselves, and sorts ids otherwise, so a large next id
// cannot size an allocation.
func firstRepeat(ids []int32, nextID uint64) (int32, bool) {
	if nextID <= 32*uint64(len(ids)) {
		seen := make([]uint64, (nextID+63)/64)
		for _, id := range ids {
			w, bit := id>>6, uint64(1)<<(id&63)
			if seen[w]&bit != 0 {
				return id, true
			}
			seen[w] |= bit
		}
		return 0, false
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return ids[i], true
		}
	}
	return 0, false
}

// monotone reports whether the id mapping is strictly increasing (the
// build-time stripe always is; interleaved concurrent Adds may not be).
func monotone(ids []int32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}
