package workload

import (
	"bytes"
	"testing"
)

// FuzzReadLog ensures the .vaqwl reader fails cleanly on corrupt input and
// that anything it accepts re-encodes deterministically: WriteTo, ReadLog
// and WriteTo again must give byte-identical output.
func FuzzReadLog(f *testing.F) {
	encode := func(l *Log) []byte {
		var buf bytes.Buffer
		if _, err := l.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	c := NewCapture(Config{MaxRecords: 8, Fingerprint: "cafe0123", Dim: 3})
	for i := 0; i < 3; i++ {
		r := testRecord(i)
		c.Add(&r)
	}
	v2 := encode(c.Snapshot())
	f.Add(v2)
	f.Add(encode(&Log{Version: 1, Fingerprint: "fp", Dim: 3, Records: []Record{testRecord(0), testRecord(1)}}))
	f.Add(v2[:15]) // truncated header
	for _, raw := range hostileLogs() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if _, err := l.WriteTo(&a); err != nil {
			t.Fatalf("accepted log does not re-encode: %v", err)
		}
		back, err := ReadLog(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded log does not parse: %v", err)
		}
		if _, err := back.WriteTo(&b); err != nil {
			t.Fatalf("round-tripped log does not re-encode: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("re-encoding differs: %d vs %d bytes", a.Len(), b.Len())
		}
	})
}
