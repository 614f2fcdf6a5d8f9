package linalg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"vaq/internal/vec"
)

var magicDense = [4]byte{'V', 'A', 'Q', '8'}

// WriteTo serializes the matrix in little-endian binary.
func (m *Dense) WriteTo(w io.Writer) (int64, error) {
	var hdr [20]byte
	copy(hdr[:4], magicDense[:])
	binary.LittleEndian.PutUint64(hdr[4:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(m.Cols))
	n, err := w.Write(hdr[:])
	total := int64(n)
	if err != nil {
		return total, err
	}
	buf := make([]byte, 8*4096)
	for off := 0; off < len(m.Data); {
		chunk := len(m.Data) - off
		if chunk > 4096 {
			chunk = 4096
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(m.Data[off+i]))
		}
		n, err := w.Write(buf[:8*chunk])
		total += int64(n)
		if err != nil {
			return total, err
		}
		off += chunk
	}
	return total, nil
}

// ReadDense deserializes a matrix written by WriteTo.
func ReadDense(r io.Reader) (*Dense, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("linalg: reading dense header: %w", err)
	}
	if [4]byte(hdr[:4]) != magicDense {
		return nil, errors.New("linalg: bad dense magic")
	}
	rows := int(binary.LittleEndian.Uint64(hdr[4:]))
	cols := int(binary.LittleEndian.Uint64(hdr[12:]))
	if rows < 0 || cols < 0 || (cols != 0 && rows > (1<<37)/cols) {
		return nil, fmt.Errorf("linalg: implausible dense shape %dx%d", rows, cols)
	}
	data, err := vec.ReadLittleEndian[float64](r, uint64(rows*cols))
	if err != nil {
		return nil, fmt.Errorf("linalg: reading dense body: %w", err)
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}, nil
}

// WriteFloat64s writes a length-prefixed float64 slice.
func WriteFloat64s(w io.Writer, v []float64) error {
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(v)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	_, err := w.Write(buf)
	return err
}

// ReadFloat64s reads a slice written by WriteFloat64s.
func ReadFloat64s(r io.Reader) ([]float64, error) {
	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	return vec.ReadLittleEndian[float64](r, binary.LittleEndian.Uint64(lenBuf[:]))
}
