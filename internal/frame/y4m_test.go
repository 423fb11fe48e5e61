package frame

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestY4MRoundTrip(t *testing.T) {
	a := NewFrame(SQCIF)
	a.FillYUV(50, 100, 150)
	b := NewFrame(SQCIF)
	for i := range b.Y.Pix {
		b.Y.Pix[i] = uint8(i)
	}
	var buf bytes.Buffer
	if err := WriteY4M(&buf, []*Frame{a, b}, 30, 1); err != nil {
		t.Fatal(err)
	}
	s, err := ReadY4M(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Frames) != 2 {
		t.Fatalf("read %d frames", len(s.Frames))
	}
	if !s.Frames[0].Equal(a) || !s.Frames[1].Equal(b) {
		t.Fatal("Y4M round trip altered frames")
	}
	if s.FPS() != 30 {
		t.Fatalf("FPS = %v", s.FPS())
	}
}

func TestReadY4MRejectsBadInput(t *testing.T) {
	cases := []string{
		"MPEG4 W16 H16\nFRAME\n",          // bad magic
		"YUV4MPEG2 W16 H16 C444\nFRAME\n", // unsupported chroma
		"YUV4MPEG2 W15 H16\n",             // odd width
		"YUV4MPEG2 W0 H16\n",              // zero width
		"YUV4MPEG2 W16 H16\nNOTFRAME\n",   // bad marker
		"YUV4MPEG2 W16 H16\nFRAME\nshort", // truncated samples
	}
	for _, in := range cases {
		if _, err := ReadY4M(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestReadY4MEmptySequence(t *testing.T) {
	s, err := ReadY4M(strings.NewReader("YUV4MPEG2 W16 H16 F25:1 Ip A1:1 C420jpeg\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Frames) != 0 {
		t.Fatal("phantom frames parsed")
	}
	if s.FPS() != 25 {
		t.Fatalf("FPS = %v", s.FPS())
	}
}

func TestReadY4MNoFPS(t *testing.T) {
	s, err := ReadY4M(strings.NewReader("YUV4MPEG2 W16 H16\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.FPS() != 0 {
		t.Fatalf("FPS = %v, want 0 for missing F tag", s.FPS())
	}
}

func TestY4MReaderStreamsIncrementally(t *testing.T) {
	// Write two frames, then read them back one at a time through the
	// streaming reader; a partial pipe must deliver frame 0 before the
	// writer has produced frame 1.
	frames := []*Frame{NewFrame(Size{16, 16}), NewFrame(Size{16, 16})}
	frames[0].Y.Pix[0] = 11
	frames[1].Y.Pix[0] = 22
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(WriteY4M(pw, frames, 30, 1))
	}()
	y, err := NewY4MReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	if y.Size() != (Size{16, 16}) || y.FPS() != 30 {
		t.Fatalf("header: size %v fps %v", y.Size(), y.FPS())
	}
	for i, want := range frames {
		got, err := y.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("frame %d differs", i)
		}
	}
	if _, err := y.ReadFrame(); err != io.EOF {
		t.Fatalf("EOF expected, got %v", err)
	}
}

// countingReader counts the bytes its consumer pulled from r.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestY4MLinesBounded: a header or FRAME line with no newline fails after
// reading at most the line cap plus one bufio buffer, not the whole
// upload; a line of exactly the cap is still accepted.
func TestY4MLinesBounded(t *testing.T) {
	const bufSize = 4096 // bufio.NewReader's default
	flood := bytes.Repeat([]byte{'A'}, 1<<20)

	c := &countingReader{r: bytes.NewReader(append([]byte("YUV4MPEG2 "), flood...))}
	if _, err := NewY4MReader(c); err == nil {
		t.Fatal("unterminated 1 MiB header accepted")
	}
	if c.n > maxY4MLine+bufSize {
		t.Fatalf("header parse read %d bytes, want <= %d", c.n, maxY4MLine+bufSize)
	}

	const header = "YUV4MPEG2 W16 H16\n"
	c = &countingReader{r: io.MultiReader(strings.NewReader(header), bytes.NewReader(flood))}
	y, err := NewY4MReader(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := y.ReadFrame(); err == nil {
		t.Fatal("unterminated 1 MiB FRAME line accepted")
	}
	if c.n > len(header)+maxY4MLine+bufSize {
		t.Fatalf("FRAME parse read %d bytes, want <= %d", c.n, len(header)+maxY4MLine+bufSize)
	}

	long := "FRAME X" + strings.Repeat("x", maxY4MLine-len("FRAME X\n")) + "\n"
	y, err = NewY4MReader(strings.NewReader(header + long + strings.Repeat("\x00", 384)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := y.ReadFrame(); err != nil {
		t.Fatalf("FRAME line of exactly %d bytes rejected: %v", maxY4MLine, err)
	}
}

// FuzzY4MReader feeds arbitrary bytes to the streaming reader: it must
// never panic, and no call may allocate more than one frame of the
// declared size plus a fixed overhead (the bufio buffer and one bounded
// line with its fields).
func FuzzY4MReader(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteY4M(&buf, []*Frame{NewFrame(Size{16, 16}), NewFrame(Size{16, 16})}, 30, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("YUV4MPEG2 W16 H16 F25:1 Ip A1:1 C420jpeg\nFRAME\n"))
	f.Add([]byte("YUV4MPEG2 W16 H16 C444\n"))
	f.Add([]byte("YUV4MPEG2 W16 H16\nFRAME Ixyz\n" + strings.Repeat("\x80", 384) + "FRA"))
	f.Add([]byte("YUV4MPEG2 W16384 H16384\nFRAME\n"))
	f.Add([]byte("YUV4MPEG2 " + strings.Repeat("W ", maxY4MLine)))

	const overhead = 64 << 10
	allocated := func(fn func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var y *Y4MReader
		var err error
		if n := allocated(func() { y, err = NewY4MReader(bytes.NewReader(data)) }); n > overhead {
			t.Fatalf("header parse allocated %d bytes", n)
		}
		if err != nil {
			return
		}
		sz := y.Size()
		frameBytes := uint64(sz.W * sz.H * 3 / 2)
		if frameBytes > 1<<21 {
			return // legal but large: keep each fuzz worker's memory small
		}
		for i := 0; i < 3 && err == nil; i++ {
			if n := allocated(func() { _, err = y.ReadFrame() }); n > frameBytes+overhead {
				t.Fatalf("frame %d: allocated %d bytes for a %v frame", i, n, sz)
			}
		}
	})
}
