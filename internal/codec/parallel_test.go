package codec

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/search"
	"repro/internal/video"
)

// parallelFrames builds a seeded synthetic sequence with real motion, some
// flat (skip-prone) area and a texture step, so every macroblock mode —
// skip, inter, inter-4V, intra — shows up in the P-frames.
func parallelFrames(n int) []*frame.Frame {
	mk := func(t int) *frame.Frame {
		f := frame.NewFrame(frame.QCIF)
		for y := 0; y < f.Y.H; y++ {
			for x := 0; x < f.Y.W; x++ {
				switch {
				case y < 48: // translating texture
					f.Y.Set(x, y, uint8((x+2*t)*5+(y+t)*3))
				case x < 80: // flat, static
					f.Y.Set(x, y, 96)
				default: // flickering texture: drives intra decisions
					f.Y.Set(x, y, uint8((x*x+y*y*7+t*61)%253))
				}
			}
		}
		for y := 0; y < f.Cb.H; y++ {
			for x := 0; x < f.Cb.W; x++ {
				f.Cb.Set(x, y, uint8(118+(x+t)%20))
				f.Cr.Set(x, y, uint8(140-(y+2*t)%20))
			}
		}
		return f
	}
	out := make([]*frame.Frame, n)
	for t := range out {
		out[t] = mk(t)
	}
	return out
}

// encodeWith encodes the shared sequence with the given worker count and
// returns bitstream, sequence stats and ACBM stats.
func encodeWith(t *testing.T, workers int, cfg Config) ([]byte, *SequenceStats, core.Stats) {
	t.Helper()
	acbm := core.New(core.DefaultParams)
	cfg.Searcher = acbm
	cfg.Workers = workers
	stats, bs, err := EncodeSequence(cfg, parallelFrames(6))
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return bs, stats, acbm.Stats()
}

// TestParallelEncoderBitIdentical is the golden guarantee of the wavefront
// design: for every worker count the bitstream, the per-frame statistics
// and the merged ACBM statistics must be byte-for-byte what the
// sequential encoder produces. Run with -race in CI (see Makefile) to
// also certify the scheduling.
func TestParallelEncoderBitIdentical(t *testing.T) {
	for _, cfg := range []Config{
		{Qp: 14, AdvancedPrediction: true, IntraPeriod: 3},
		{Qp: 22, Entropy: EntropyArith, Deblock: true},
	} {
		refBS, refStats, refACBM := encodeWith(t, 1, cfg)
		for _, workers := range []int{2, 4, 7} {
			bs, stats, acbm := encodeWith(t, workers, cfg)
			if !bytes.Equal(bs, refBS) {
				t.Errorf("cfg=%+v workers=%d: bitstream differs from sequential (%d vs %d bytes)",
					cfg, workers, len(bs), len(refBS))
			}
			if !reflect.DeepEqual(stats, refStats) {
				t.Errorf("cfg=%+v workers=%d: sequence stats differ\n got %+v\nwant %+v", cfg, workers, stats, refStats)
			}
			if acbm != refACBM {
				t.Errorf("cfg=%+v workers=%d: ACBM stats differ\n got %+v\nwant %+v", cfg, workers, acbm, refACBM)
			}
		}
	}
}

// TestParallelDecodesToSameFrames checks the parallel encoder's stream
// stays decodable and reconstructs exactly the encoder's reference loop.
func TestParallelDecodesToSameFrames(t *testing.T) {
	acbm := core.New(core.DefaultParams)
	e := NewEncoder(Config{Qp: 16, Searcher: acbm, Workers: 4})
	var lastRecon *frame.Frame
	for _, f := range parallelFrames(4) {
		if _, err := e.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
		lastRecon = e.Reconstruction()
	}
	frames, err := Decode(e.Bitstream())
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("decoded %d frames, want 4", len(frames))
	}
	if !frames[3].Equal(lastRecon) {
		t.Error("decoded frame 3 differs from encoder reconstruction")
	}
}

// TestPipelineBitIdentical is the golden guarantee of the cross-frame
// pipeline: for every Table 1 profile and for Workers ∈ {1, 4}, the
// pipelined EncodeSequence must produce the byte-for-byte bitstream and
// statistics of a sequential EncodeFrame loop, and the decoder must
// reconstruct it exactly. Run with -race in CI (see Makefile) to also
// certify the analysis/entropy overlap.
func TestPipelineBitIdentical(t *testing.T) {
	for _, prof := range video.Profiles {
		frames := video.Generate(prof, frame.QCIF, 4, 7)
		// Serial reference: an explicit EncodeFrame loop.
		ref := NewEncoder(Config{Qp: 16, Searcher: core.New(core.DefaultParams), Workers: 1})
		for _, f := range frames {
			if _, err := ref.EncodeFrame(f); err != nil {
				t.Fatalf("%v: %v", prof, err)
			}
		}
		refBS := ref.Bitstream()
		refStats := ref.Stats()
		for _, workers := range []int{1, 4} {
			stats, bs, err := EncodeSequence(Config{
				Qp: 16, Searcher: core.New(core.DefaultParams),
				Workers: workers, Pipeline: true,
			}, frames)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", prof, workers, err)
			}
			if !bytes.Equal(bs, refBS) {
				t.Errorf("%v workers=%d: pipelined bitstream differs from serial (%d vs %d bytes)",
					prof, workers, len(bs), len(refBS))
			}
			if !reflect.DeepEqual(stats, refStats) {
				t.Errorf("%v workers=%d: pipelined stats differ\n got %+v\nwant %+v",
					prof, workers, stats, refStats)
			}
			decoded, err := Decode(bs)
			if err != nil {
				t.Fatalf("%v workers=%d: decode: %v", prof, workers, err)
			}
			if len(decoded) != len(frames) || !decoded[len(decoded)-1].Equal(ref.Reconstruction()) {
				t.Errorf("%v workers=%d: decoded pipelined stream differs from encoder reconstruction", prof, workers)
			}
		}
	}
}

// TestPipelineModesAndRateControl covers the pipeline's edge configs: the
// arithmetic entropy backend (whose coder state spans frame boundaries),
// intra periods, deblocking — and rate control, where the frame-lag
// controller keeps the overlap and must still match exactly.
func TestPipelineModesAndRateControl(t *testing.T) {
	frames := parallelFrames(6)
	for _, cfg := range []Config{
		{Qp: 14, AdvancedPrediction: true, IntraPeriod: 3},
		{Qp: 22, Entropy: EntropyArith, Deblock: true},
		{Qp: 16, TargetKbps: 80, FPS: 30},
	} {
		serial := cfg
		serial.Workers = 1
		_, refBS, err := EncodeSequence(serial, frames)
		if err != nil {
			t.Fatal(err)
		}
		piped := cfg
		piped.Pipeline = true
		piped.Workers = 4
		_, bs, err := EncodeSequence(piped, frames)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bs, refBS) {
			t.Errorf("cfg=%+v: pipelined bitstream differs (%d vs %d bytes)", cfg, len(bs), len(refBS))
		}
	}
}

// noForkSearcher is a minimal external searcher that does not implement
// search.Forker, standing in for out-of-module implementations. (No
// embedding: promoted FSBM methods would satisfy Forker.)
type noForkSearcher struct{ f search.FSBM }

func (n *noForkSearcher) Name() string { return "no-fork" }

func (n *noForkSearcher) Search(in *search.Input) search.Result { return n.f.Search(in) }

// TestWorkerCountForkers verifies that every searcher the module provides
// — including the stateful core.Budgeted, whose per-frame servo now forks
// — analyses in parallel, while an external searcher without Fork/Join is
// normalised to sequential analysis (Workers=1, no shared pool) at config
// time.
func TestWorkerCountForkers(t *testing.T) {
	bd, err := core.NewBudgeted(150, core.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s    search.Searcher
		want int
	}{
		{bd, 5},
		{core.New(core.DefaultParams), 5},
		{&search.FSBM{}, 5},
		{&search.PBM{}, 5},
		{&search.TSS{}, 5},
		{&search.Diamond{}, 5},
		{&search.RCFSBM{}, 5},
		{&noForkSearcher{}, 1},
	} {
		e := NewEncoder(Config{Qp: 16, Searcher: tc.s, Workers: 5})
		if got := e.workerCount(); got != tc.want {
			t.Errorf("%s: workerCount=%d, want %d", tc.s.Name(), got, tc.want)
		}
	}
	// The pool is likewise dropped for non-Forker searchers: the session
	// encodes sequentially on its own goroutine instead.
	pool := NewPool(2)
	defer pool.Close()
	e := NewEncoder(Config{Qp: 16, Searcher: &noForkSearcher{}, Pool: pool, Workers: 5})
	if e.cfg.Pool != nil {
		t.Error("non-Forker searcher kept the shared pool")
	}
	frames := parallelFrames(2)
	for _, f := range frames {
		if _, err := e.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Decode(e.Bitstream()); err != nil {
		t.Fatalf("sequential non-Forker encode undecodable: %v", err)
	}
}
