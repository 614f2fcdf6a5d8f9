package vec

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
)

// ReadLittleEndian reads n little-endian values. It trusts n for at most
// 1<<20 values up front (8 MiB of float64) and grows the result beyond
// that only as the stream delivers bytes, so a corrupt or hostile count
// fails at the first missing byte instead of allocating what it claims.
func ReadLittleEndian[T uint16 | int32 | uint32 | float32 | float64](r io.Reader, n uint64) ([]T, error) {
	const trusted, chunk = 1 << 20, 1 << 14
	size := binary.Size(T(0))
	raw := make([]byte, min(n, chunk)*uint64(size))
	out := make([]T, 0, min(n, trusted))
	for n > 0 {
		c := int(min(n, chunk))
		if _, err := io.ReadFull(r, raw[:c*size]); err != nil {
			return nil, err
		}
		if len(out)+c > cap(out) {
			// Doubling keeps the copies at O(n) in total.
			out = slices.Grow(out, max(len(out), c))
		}
		l := len(out)
		out = out[:l+c]
		switch v := any(out[l:]).(type) {
		case []uint16:
			for i := range v {
				v[i] = binary.LittleEndian.Uint16(raw[2*i:])
			}
		case []int32:
			for i := range v {
				v[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
			}
		case []uint32:
			for i := range v {
				v[i] = binary.LittleEndian.Uint32(raw[4*i:])
			}
		case []float32:
			for i := range v {
				v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			}
		case []float64:
			for i := range v {
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		n -= uint64(c)
	}
	return out, nil
}
