package codec

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// countingReader counts the bytes a reader pulled from its source.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// allocatedBytes returns the heap bytes fn allocated.
func allocatedBytes(fn func()) int {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return int(m1.TotalAlloc - m0.TotalAlloc)
}

// readOverhead is the fixed allocation a ReadPacket call may make beyond
// what its consumed bytes account for: one payload chunk allocated ahead
// of its bytes, plus error formatting.
const readOverhead = payloadChunk + 16<<10

// checkReadBounded runs one ReadPacket call and fails if it allocated
// more than twice the bytes it pulled from the source (a long payload is
// staged, then joined) plus readOverhead. It returns the call's error.
func checkReadBounded(t *testing.T, c *countingReader, read func() error) error {
	t.Helper()
	before := c.n
	var err error
	n := allocatedBytes(func() { err = read() })
	if consumed := c.n - before; n > 2*consumed+readOverhead {
		t.Fatalf("ReadPacket allocated %d bytes after consuming %d (err %v)", n, consumed, err)
	}
	return err
}

// truncatedRecord declares a maxFramedPacket payload and then ends: the
// 12-byte record that used to cost a 256 MiB allocation.
func truncatedRecord(prefix ...byte) []byte {
	rec := append([]byte(nil), prefix...)
	rec = binary.AppendUvarint(rec, 1)
	rec = binary.AppendUvarint(rec, maxFramedPacket)
	return append(rec, "payload"...)
}

// TestReadPacketAllocatesAsBytesArrive pins the fix directly for both
// readers: a truncated record declaring 256 MiB costs about one chunk,
// and a long payload that does arrive still reads back intact.
func TestReadPacketAllocatesAsBytesArrive(t *testing.T) {
	c := &countingReader{r: bytes.NewReader(truncatedRecord())}
	pr := NewPacketReader(c)
	if err := checkReadBounded(t, c, func() error { _, _, err := pr.ReadPacket(); return err }); err == nil {
		t.Fatal("truncated record accepted")
	}
	c = &countingReader{r: bytes.NewReader(truncatedRecord(0))}
	lr := NewLadderPacketReader(c)
	if err := checkReadBounded(t, c, func() error { _, _, _, err := lr.ReadPacket(); return err }); err == nil {
		t.Fatal("truncated ladder record accepted")
	}

	long := bytes.Repeat([]byte("0123456789abcdef"), 3*payloadChunk/16+5)
	var buf bytes.Buffer
	if err := NewLadderPacketWriter(&buf).WritePacket(2, 7, long); err != nil {
		t.Fatal(err)
	}
	rung, idx, data, err := NewLadderPacketReader(&buf).ReadPacket()
	if err != nil || rung != 2 || idx != 7 || !bytes.Equal(data, long) {
		t.Fatalf("long payload: rung %d index %d, %d bytes, err %v", rung, idx, len(data), err)
	}
}

// FuzzPacketReader feeds arbitrary bytes to PacketReader: it must never
// panic, and no ReadPacket call may allocate more than twice the bytes it
// consumed plus a fixed overhead, whatever lengths the records declare.
func FuzzPacketReader(f *testing.F) {
	var buf bytes.Buffer
	pw := NewPacketWriter(&buf)
	for i, p := range [][]byte{[]byte("header"), {}, bytes.Repeat([]byte{0xa5}, 300)} {
		if err := pw.WritePacket(i, p); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(buf.Bytes())
	f.Add(truncatedRecord())
	f.Add(bytes.Repeat([]byte{0x80}, 11))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &countingReader{r: bytes.NewReader(data)}
		pr := NewPacketReader(c)
		for i := 0; i < 64; i++ {
			if err := checkReadBounded(t, c, func() error { _, _, err := pr.ReadPacket(); return err }); err != nil {
				return
			}
		}
	})
}

// FuzzLadderPacketReader is FuzzPacketReader for the rung-tagged framing.
func FuzzLadderPacketReader(f *testing.F) {
	var buf bytes.Buffer
	lw := NewLadderPacketWriter(&buf)
	for i, p := range [][]byte{[]byte("header"), {}, bytes.Repeat([]byte{0x5a}, 300)} {
		if err := lw.WritePacket(i%2, i, p); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(buf.Bytes())
	f.Add(truncatedRecord(0))
	f.Add(append([]byte{0xff, 0xff, 0x7f}, truncatedRecord()...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &countingReader{r: bytes.NewReader(data)}
		lr := NewLadderPacketReader(c)
		for i := 0; i < 64; i++ {
			if err := checkReadBounded(t, c, func() error { _, _, _, err := lr.ReadPacket(); return err }); err != nil {
				return
			}
		}
	})
}
