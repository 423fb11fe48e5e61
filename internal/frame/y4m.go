package frame

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Y4MStream holds a parsed YUV4MPEG2 sequence.
type Y4MStream struct {
	Frames []*Frame
	FPSNum int
	FPSDen int
}

// FPS returns the frame rate as a float (0 if the header omitted it).
func (s *Y4MStream) FPS() float64 {
	if s.FPSDen == 0 {
		return 0
	}
	return float64(s.FPSNum) / float64(s.FPSDen)
}

// maxY4MLine bounds the stream header and every FRAME line, newline
// included. Real headers are well under 100 bytes; the cap keeps an
// untrusted upload that never sends a newline from being buffered whole.
const maxY4MLine = 4 << 10

// readY4MLine reads one newline-terminated line of at most maxY4MLine
// bytes. Like bufio.Reader.ReadString it returns the partial line with
// the read error at end of input; an over-long line fails after reading
// at most maxY4MLine plus one bufio buffer.
func readY4MLine(br *bufio.Reader) (string, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if len(line)+len(chunk) > maxY4MLine {
			return "", fmt.Errorf("frame: Y4M line longer than %d bytes", maxY4MLine)
		}
		line = append(line, chunk...)
		if err != bufio.ErrBufferFull {
			return string(line), err
		}
	}
}

// Y4MReader parses a YUV4MPEG2 stream incrementally: the header is read
// by NewY4MReader and each ReadFrame returns the next picture as soon as
// its samples are available. This is the streaming counterpart of ReadY4M
// — a network server can start encoding frame 0 while frame 1 is still in
// flight on the wire.
type Y4MReader struct {
	br     *bufio.Reader
	size   Size
	fpsNum int
	fpsDen int
	frames int
}

// NewY4MReader parses the stream header of r. Only 4:2:0 chroma (C420,
// C420jpeg, C420mpeg2, C420paldv or no C tag) is accepted.
func NewY4MReader(r io.Reader) (*Y4MReader, error) {
	br := bufio.NewReader(r)
	header, err := readY4MLine(br)
	if err != nil {
		return nil, fmt.Errorf("frame: reading Y4M header: %w", err)
	}
	// Parameters are iterated, not split into a slice, so a header packed
	// with tiny fields allocates nothing per field.
	magic, params, _ := strings.Cut(strings.TrimSpace(header), " ")
	if magic != "YUV4MPEG2" {
		return nil, fmt.Errorf("frame: not a YUV4MPEG2 stream")
	}
	var w, h, fn, fd int
	for f := range strings.FieldsSeq(params) {
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case 'W':
			if w, err = strconv.Atoi(f[1:]); err != nil {
				return nil, fmt.Errorf("frame: bad Y4M width %q", f)
			}
		case 'H':
			if h, err = strconv.Atoi(f[1:]); err != nil {
				return nil, fmt.Errorf("frame: bad Y4M height %q", f)
			}
		case 'F':
			parts := strings.SplitN(f[1:], ":", 2)
			if len(parts) == 2 {
				fn, _ = strconv.Atoi(parts[0])
				fd, _ = strconv.Atoi(parts[1])
			}
		case 'C':
			sub := f[1:]
			if sub != "420" && sub != "420jpeg" && sub != "420mpeg2" && sub != "420paldv" {
				return nil, fmt.Errorf("frame: unsupported Y4M chroma %q (only 4:2:0)", f)
			}
		}
	}
	if w <= 0 || h <= 0 || w%2 != 0 || h%2 != 0 || w > 1<<14 || h > 1<<14 {
		return nil, fmt.Errorf("frame: bad Y4M dimensions %dx%d", w, h)
	}
	return &Y4MReader{br: br, size: Size{W: w, H: h}, fpsNum: fn, fpsDen: fd}, nil
}

// Size returns the stream's frame format.
func (y *Y4MReader) Size() Size { return y.size }

// FPS returns the frame rate from the header (0 if omitted).
func (y *Y4MReader) FPS() float64 {
	if y.fpsDen == 0 {
		return 0
	}
	return float64(y.fpsNum) / float64(y.fpsDen)
}

// ReadFrame returns the next frame, or io.EOF at a clean end of stream.
func (y *Y4MReader) ReadFrame() (*Frame, error) {
	line, err := readY4MLine(y.br)
	if err == io.EOF && line == "" {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("frame: reading FRAME marker: %w", err)
	}
	if !strings.HasPrefix(line, "FRAME") {
		return nil, fmt.Errorf("frame: expected FRAME marker, got %q", strings.TrimSpace(line))
	}
	f := NewFrame(y.size)
	for _, p := range []*Plane{f.Y, f.Cb, f.Cr} {
		if _, err := io.ReadFull(y.br, p.Pix); err != nil {
			return nil, fmt.Errorf("frame: reading frame %d samples: %w", y.frames, err)
		}
	}
	y.frames++
	return f, nil
}

// ReadY4M parses a YUV4MPEG2 stream with 4:2:0 chroma (C420, C420jpeg,
// C420mpeg2 or no C tag). It accepts the streams written by WriteY4M and
// by common tools (ffmpeg, x264).
func ReadY4M(r io.Reader) (*Y4MStream, error) {
	y, err := NewY4MReader(r)
	if err != nil {
		return nil, err
	}
	stream := &Y4MStream{FPSNum: y.fpsNum, FPSDen: y.fpsDen}
	for {
		f, err := y.ReadFrame()
		if err == io.EOF {
			return stream, nil
		}
		if err != nil {
			return nil, err
		}
		stream.Frames = append(stream.Frames, f)
	}
}
