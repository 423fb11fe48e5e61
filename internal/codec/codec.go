// Package codec implements the hybrid DPCM/DCT video codec substrate the
// paper's evaluation runs on: an H.263-style encoder (16×16 macroblocks,
// 8×8 DCT, H.263 uniform quantiser, half-pel motion compensation, median
// MV prediction, intra/inter/skip macroblock modes) with a pluggable
// motion estimator, plus the matching decoder.
//
// The bitstream is a compact custom format over the internal/entropy
// layer; it is fully decodable and the decoder's output is bit-identical
// to the encoder's reconstruction loop, which the tests verify. Rates and
// PSNRs measured here stand in for the paper's TMN5 (H.263) numbers.
package codec

import (
	"fmt"
	"runtime"

	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/search"
)

// Magic identifies the bitstream format ("AB01" = ACBM repro v1).
const Magic = 0x41423031

// DefaultIntraBias is the TMN-style margin used in the inter/intra mode
// decision: intra wins when IntraSAD < interSAD − DefaultIntraBias.
const DefaultIntraBias = 500

// DefaultSearchRange is the paper's p=15.
const DefaultSearchRange = 15

// MaxSearchRange is the largest search range the CLI and /encode accept
// from a user. The range sizes every reference plane's apron, so an
// untrusted value must be bounded before it reaches Config.
const MaxSearchRange = 64

// Config controls one encode.
type Config struct {
	// Qp is the H.263 quantiser parameter (1..31).
	Qp int
	// SearchRange is the motion search range p in full pels (default 15).
	SearchRange int
	// Searcher performs motion estimation (default: full search).
	Searcher search.Searcher
	// IntraBias is the inter/intra decision margin (default 500).
	IntraBias int
	// FPS is the source frame rate, used only for bitrate reporting.
	FPS float64
	// IntraPeriod, when positive, forces an I-frame every IntraPeriod
	// frames (GOP structure for error resilience / channel adaptation).
	// 0 means only the first frame is intra, as in the paper's setup.
	IntraPeriod int
	// Entropy selects the entropy backend: baseline Exp-Golomb codes
	// (default) or adaptive binary arithmetic coding (the counterpart of
	// H.263 Annex E).
	Entropy EntropyMode
	// AdvancedPrediction enables the four-vector inter mode (one motion
	// vector per 8×8 luma block, as in H.263 Annex F without OBMC): the
	// encoder refines four sub-block vectors around the macroblock vector
	// and uses them when they beat the single vector by Inter4VBias.
	AdvancedPrediction bool
	// Inter4VBias is the SAD margin the four-vector mode must win by
	// (default 300, covering the three extra MVD costs).
	Inter4VBias int
	// PixelDecimation evaluates motion search candidates on a 4:1
	// subsampled grid (the fast-ME family of the paper's refs [6-8]);
	// it composes with any Searcher.
	PixelDecimation bool
	// Deblock enables the in-loop deblocking filter (an H.263 Annex J
	// counterpart) applied to every reconstruction before it becomes a
	// reference. The flag is carried in each frame header, so the decoder
	// follows automatically.
	Deblock bool
	// TargetKbps, when positive, enables frame-level rate control: the
	// quantiser is servoed around Config.Qp so the output rate tracks
	// this target at Config.FPS. 0 keeps the constant Qp of the paper's
	// experiments. The controller is frame-lagged (see rateController):
	// each frame's quantiser is decided before its analysis from the
	// actual sizes of all fully written frames plus a predicted size for
	// the one frame in flight, so rate control composes with Workers,
	// Pipeline and Pool — same bits in every mode, full parallelism.
	TargetKbps float64
	// Pipeline makes EncodeSequence and EncodeStream overlap the serial
	// entropy coding of frame n with the analysis of frame n+1 on one
	// writer goroutine (one frame in flight; see frameWriter). The
	// bitstream and statistics are byte-identical to a serial encode for
	// every Workers value, with or without rate control (the frame-lag
	// controller never waits on the in-flight frame's bits).
	Pipeline bool
	// Pool, when non-nil, runs macroblock analysis on this shared worker
	// pool, and Workers is ignored. This is the multi-session serving mode
	// (cmd/vcodecd): N concurrent encoder sessions share one
	// machine-sized pool, interleaving at macroblock granularity, instead
	// of oversubscribing the host with N×Workers goroutines. The
	// wavefront schedule, its invariants and the output bits are those of
	// the Workers path, which runs the same schedule on a frame-private
	// Pool; only a caller-supplied Pool reports queue waits to the
	// Observer. The Searcher must implement search.Forker (all searchers
	// this module provides do); otherwise the pool is dropped and the
	// session analyses sequentially on its own goroutine.
	Pool *Pool
	// Priority is the session's scheduling class on a shared Pool: live
	// (the zero value) macroblock tasks dispatch ahead of batch tasks, so
	// a live session preempts batch sessions at the anti-diagonal
	// boundary while batch retains an anti-starvation share (see Pool).
	// Priority never reaches the analysis results, so it cannot change a
	// single output bit. Ignored without Pool.
	Priority Priority
	// Observer, when non-nil, receives per-frame phase timings (analysis
	// wall clock, shared-pool queue wait, entropy wall clock, encoded
	// size) as the encode progresses — the serving layer's flight
	// recorder attaches here; see FrameObserver for the callback and
	// concurrency contract. Observation is strictly one-way: the codec
	// never reads anything back from the Observer, so attaching one
	// cannot change a single output bit, and the nil path is exactly the
	// pre-observer code (the alloc-ceiling and overhead-guard tests pin
	// both properties).
	Observer FrameObserver
	// Workers sets how many goroutines analyse macroblocks concurrently
	// (motion estimation, mode decision, transform/quantisation and
	// reconstruction, scheduled per anti-diagonal wavefront; entropy
	// coding stays serial, so the bitstream and all statistics are
	// bit-identical for every worker count). 0 selects GOMAXPROCS; 1
	// forces the sequential raster loop, the reference path. N > 1 runs
	// each frame's analysis on a frame-private Pool of N workers, closed
	// when the frame's analysis returns, forking min(N, rows, cols/2+1)
	// searchers per inter frame. Parallel analysis requires the Searcher
	// to implement search.Forker — its frame-granular fork/join protocol
	// runs at every worker count, so stateful searchers (core.Budgeted)
	// stay deterministic; searchers without it are clamped to 1.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.SearchRange <= 0 {
		c.SearchRange = DefaultSearchRange
	}
	if c.Searcher == nil {
		c.Searcher = &search.FSBM{}
	}
	if c.IntraBias == 0 {
		c.IntraBias = DefaultIntraBias
	}
	if c.Inter4VBias == 0 {
		c.Inter4VBias = 300
	}
	if c.FPS <= 0 {
		c.FPS = 30
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if _, ok := c.Searcher.(search.Forker); !ok {
		// A searcher that cannot fork cannot be scheduled across workers
		// or a shared pool; it analyses sequentially on the session's own
		// goroutine. Every searcher this module provides implements
		// search.Forker, so this only guards external implementations.
		c.Workers = 1
		c.Pool = nil
	}
	c.Qp = dct.ClampQp(c.Qp)
	return c
}

// FrameType distinguishes intra and predicted frames.
type FrameType int

const (
	// IFrame is intra-coded (no reference).
	IFrame FrameType = iota
	// PFrame is predicted from the previous reconstructed frame.
	PFrame
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	if t == IFrame {
		return "I"
	}
	return "P"
}

// FrameStats reports one encoded frame.
type FrameStats struct {
	Type         FrameType
	Qp           int     // quantiser used for this frame
	Bits         int     // bits this frame contributed to the stream
	PSNRY        float64 // luma PSNR of the reconstruction vs the source
	PSNRCb       float64
	PSNRCr       float64
	SearchPoints int // candidate positions considered by motion search
	// SearchEvaluated is the part of SearchPoints whose SAD kernel ran:
	// full search skips candidates its lower bound rules out.
	SearchEvaluated int
	Macroblocks     int
	IntraMBs        int
	InterMBs        int
	Inter4VMBs      int // inter MBs that used four-vector prediction
	SkipMBs         int
}

// SequenceStats aggregates an encoded sequence.
type SequenceStats struct {
	Frames []FrameStats
	FPS    float64
}

// AvgPSNRY returns the mean luma PSNR across all frames.
func (s *SequenceStats) AvgPSNRY() float64 {
	if len(s.Frames) == 0 {
		return 0
	}
	var sum float64
	for _, f := range s.Frames {
		sum += f.PSNRY
	}
	return sum / float64(len(s.Frames))
}

// TotalBits returns the bitstream length in bits.
func (s *SequenceStats) TotalBits() int {
	total := 0
	for _, f := range s.Frames {
		total += f.Bits
	}
	return total
}

// BitrateKbps returns the average rate in kbit/s at the configured frame
// rate, the x-axis of the paper's Figs. 5 and 6.
func (s *SequenceStats) BitrateKbps() float64 {
	if len(s.Frames) == 0 {
		return 0
	}
	fps := s.FPS
	if fps <= 0 {
		fps = 30
	}
	return float64(s.TotalBits()) * fps / float64(len(s.Frames)) / 1000
}

// AvgSearchPointsPerMB returns the mean candidate positions per macroblock
// over P-frames — the paper's Table 1 metric.
func (s *SequenceStats) AvgSearchPointsPerMB() float64 {
	return s.perPMB(func(f *FrameStats) int { return f.SearchPoints })
}

// AvgSearchEvaluatedPerMB returns the mean number of candidates whose SAD
// kernel ran per macroblock over P-frames, the pruned part of
// AvgSearchPointsPerMB.
func (s *SequenceStats) AvgSearchEvaluatedPerMB() float64 {
	return s.perPMB(func(f *FrameStats) int { return f.SearchEvaluated })
}

// perPMB averages a per-frame count over the macroblocks of P-frames.
func (s *SequenceStats) perPMB(count func(*FrameStats) int) float64 {
	n, mbs := 0, 0
	for i := range s.Frames {
		f := &s.Frames[i]
		if f.Type != PFrame {
			continue
		}
		n += count(f)
		mbs += f.Macroblocks
	}
	if mbs == 0 {
		return 0
	}
	return float64(n) / float64(mbs)
}

// validateSize checks the frame format is codable (16-divisible luma).
func validateSize(s frame.Size) error {
	if s.W%16 != 0 || s.H%16 != 0 {
		return fmt.Errorf("codec: luma size %v not divisible into 16x16 macroblocks", s)
	}
	if s.W <= 0 || s.H <= 0 {
		return fmt.Errorf("codec: empty frame size %v", s)
	}
	return nil
}
