package main

import (
	"bytes"
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/video"
)

// clip is one rendered input: the frames and their Y4M bytes.
type clip struct {
	frames    []*frame.Frame
	y4m       []byte
	headerLen int // the YUV4MPEG2 stream header, through its newline
	frameLen  int // "FRAME\n" plus one 4:2:0 picture
}

// renderClip renders n frames of profile p with video.Generate and
// serialises them to Y4M at 30 fps.
func renderClip(p video.Profile, size frame.Size, n int, seed uint64) (*clip, error) {
	frames := video.Generate(p, size, n, seed)
	var buf bytes.Buffer
	if err := frame.WriteY4M(&buf, frames, 30, 1); err != nil {
		return nil, fmt.Errorf("render %v: %w", p, err)
	}
	c := &clip{frames: frames, y4m: buf.Bytes(), frameLen: len("FRAME\n") + size.W*size.H*3/2}
	c.headerLen = bytes.IndexByte(c.y4m, '\n') + 1
	if c.headerLen+n*c.frameLen != len(c.y4m) {
		return nil, fmt.Errorf("render %v: Y4M is %d bytes, want %d", p, len(c.y4m), c.headerLen+n*c.frameLen)
	}
	return c, nil
}

// frameBytes returns frame i's Y4M record.
func (c *clip) frameBytes(i int) []byte {
	off := c.headerLen + i*c.frameLen
	return c.y4m[off : off+c.frameLen]
}

// config is the workload's codec configuration for one rung, exactly as
// the program builds it from the workload's query (or the `vcodec
// encode` defaults for the library workload): a fresh ACBM instance,
// fixed Qp, default search range and intra bias, 30 fps.
func (w *workload) config() codec.Config {
	return codec.Config{Qp: w.qp, Searcher: core.New(core.DefaultParams), FPS: 30}
}

// ladderSizes is the rung chain of a workload (one rung unless the
// workload is a simulcast ladder).
func (w *workload) ladderSizes() []frame.Size {
	sizes := []frame.Size{w.size}
	for r := 1; r < w.rungs; r++ {
		sizes = append(sizes, frame.Size{W: w.size.W >> r, H: w.size.H >> r})
	}
	return sizes
}
