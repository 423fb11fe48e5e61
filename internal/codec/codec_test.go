package codec

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/search"
	"repro/internal/video"
)

func testFrames(p video.Profile, n int) []*frame.Frame {
	return video.Generate(p, frame.SQCIF, n, 1)
}

func TestEncodeDecodeRoundTripMatchesReconstruction(t *testing.T) {
	// The decoder must reproduce the encoder's reference loop exactly,
	// for every profile and for both low and high Qp.
	for _, p := range video.Profiles {
		for _, qp := range []int{4, 16, 30} {
			frames := testFrames(p, 4)
			enc := NewEncoder(Config{Qp: qp})
			var recons []*frame.Frame
			for _, f := range frames {
				if _, err := enc.EncodeFrame(f); err != nil {
					t.Fatalf("%v qp%d: %v", p, qp, err)
				}
				recons = append(recons, enc.Reconstruction())
			}
			decoded, err := Decode(enc.Bitstream())
			if err != nil {
				t.Fatalf("%v qp%d: decode: %v", p, qp, err)
			}
			if len(decoded) != len(frames) {
				t.Fatalf("%v qp%d: decoded %d frames, want %d", p, qp, len(decoded), len(frames))
			}
			for i := range decoded {
				if !decoded[i].Equal(recons[i]) {
					t.Fatalf("%v qp%d: frame %d decoder output differs from encoder reconstruction", p, qp, i)
				}
			}
		}
	}
}

func TestFirstFrameIsIntraRestArePredicted(t *testing.T) {
	frames := testFrames(video.Carphone, 3)
	stats, _, err := EncodeSequence(Config{Qp: 16}, frames)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames[0].Type != IFrame {
		t.Fatal("first frame not intra")
	}
	for i := 1; i < len(stats.Frames); i++ {
		if stats.Frames[i].Type != PFrame {
			t.Fatalf("frame %d not predicted", i)
		}
	}
	if stats.Frames[0].IntraMBs != stats.Frames[0].Macroblocks {
		t.Fatal("I-frame must be all intra MBs")
	}
	if stats.Frames[0].SearchPoints != 0 {
		t.Fatal("I-frame must not search")
	}
}

func TestQualityIncreasesAsQpDecreases(t *testing.T) {
	frames := testFrames(video.Carphone, 3)
	var prevPSNR, prevRate float64
	for i, qp := range []int{30, 16, 8} {
		stats, _, err := EncodeSequence(Config{Qp: qp}, frames)
		if err != nil {
			t.Fatal(err)
		}
		psnr, rate := stats.AvgPSNRY(), stats.BitrateKbps()
		if i > 0 {
			if psnr <= prevPSNR {
				t.Fatalf("PSNR not increasing: qp%d %.2f <= %.2f", qp, psnr, prevPSNR)
			}
			if rate <= prevRate {
				t.Fatalf("rate not increasing: qp%d %.2f <= %.2f", qp, rate, prevRate)
			}
		}
		prevPSNR, prevRate = psnr, rate
	}
}

func TestReasonableReconstructionQuality(t *testing.T) {
	frames := testFrames(video.MissAmerica, 3)
	stats, _, err := EncodeSequence(Config{Qp: 8}, frames)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := stats.AvgPSNRY(); psnr < 30 {
		t.Fatalf("luma PSNR %.2f dB too low at Qp 8", psnr)
	}
}

func TestStaticSceneConvergesToSkip(t *testing.T) {
	// Repeating one frame: the first P-frame still refines the I-frame's
	// quantisation error, but the loop converges and later P-frames must
	// be (almost) all skip at ~1 bit per macroblock.
	f := testFrames(video.Foreman, 1)[0]
	enc := NewEncoder(Config{Qp: 16})
	var fs FrameStats
	for i := 0; i < 4; i++ {
		var err error
		fs, err = enc.EncodeFrame(f.Clone())
		if err != nil {
			t.Fatal(err)
		}
	}
	// A few MBs may keep oscillating around the quantiser dead zone, so
	// require a large majority rather than all of them.
	if fs.SkipMBs < fs.Macroblocks*8/10 {
		t.Fatalf("converged static frame: only %d/%d MBs skipped", fs.SkipMBs, fs.Macroblocks)
	}
	if fs.Bits > 40*fs.Macroblocks {
		t.Fatalf("converged static frame cost %d bits", fs.Bits)
	}
	if fs.PSNRY < 28 {
		t.Fatalf("static frame PSNR %.2f", fs.PSNRY)
	}
}

func TestGlobalTranslationCodedCheaply(t *testing.T) {
	// A pure global shift must cost far fewer bits than an I-frame: the
	// whole point of motion compensation.
	base := testFrames(video.Foreman, 1)[0]
	shifted := base.Clone()
	shifted.Y = base.Y.Shift(4, 2)
	shifted.Cb = base.Cb.Shift(2, 1)
	shifted.Cr = base.Cr.Shift(2, 1)
	enc := NewEncoder(Config{Qp: 10})
	s0, err := enc.EncodeFrame(base)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := enc.EncodeFrame(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Bits*3 > s0.Bits {
		t.Fatalf("shifted P-frame %d bits vs I-frame %d bits", s1.Bits, s0.Bits)
	}
	if s1.InterMBs == 0 {
		t.Fatal("no inter MBs on a translated frame")
	}
}

func TestSearcherPluggability(t *testing.T) {
	frames := testFrames(video.Carphone, 3)
	for _, s := range []search.Searcher{&search.FSBM{}, &search.PBM{}, &search.TSS{}} {
		stats, bs, err := EncodeSequence(Config{Qp: 16, Searcher: s}, frames)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if _, err := Decode(bs); err != nil {
			t.Fatalf("%s: decode: %v", s.Name(), err)
		}
		pts, eval := stats.AvgSearchPointsPerMB(), stats.AvgSearchEvaluatedPerMB()
		if pts <= 0 {
			t.Fatalf("%s: no search points recorded", s.Name())
		}
		// Only full search prunes: it scores a strict, non-empty subset.
		if _, full := s.(*search.FSBM); full && (eval <= 0 || eval >= pts) || !full && eval != pts {
			t.Fatalf("%s: %.1f evaluated of %.1f points/MB", s.Name(), eval, pts)
		}
	}
}

func TestFSBMSearchPointsPerMB(t *testing.T) {
	// With p=15 on SQCIF (8x6 MBs), interior MBs cost 969; border MBs
	// fewer. The average must sit between half and the full count.
	frames := testFrames(video.MissAmerica, 2)
	stats, _, err := EncodeSequence(Config{Qp: 16, Searcher: &search.FSBM{}}, frames)
	if err != nil {
		t.Fatal(err)
	}
	avg := stats.AvgSearchPointsPerMB()
	if avg < 500 || avg > 969 {
		t.Fatalf("FSBM avg points/MB = %.0f", avg)
	}
}

func TestEncoderRejectsBadInput(t *testing.T) {
	enc := NewEncoder(Config{Qp: 16})
	odd := frame.NewFrame(frame.Size{W: 24, H: 24}) // not 16-divisible
	if _, err := enc.EncodeFrame(odd); err == nil {
		t.Fatal("24x24 frame accepted")
	}
	ok := frame.NewFrame(frame.SQCIF)
	if _, err := enc.EncodeFrame(ok); err != nil {
		t.Fatal(err)
	}
	other := frame.NewFrame(frame.QCIF)
	if _, err := enc.EncodeFrame(other); err == nil {
		t.Fatal("size change accepted")
	}
	if _, _, err := EncodeSequence(Config{}, nil); err == nil {
		t.Fatal("empty sequence accepted")
	}
}

func TestDecoderRejectsCorruptStreams(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty stream accepted")
	}
	// Valid header then truncation mid-frame.
	frames := testFrames(video.Carphone, 2)
	_, bs, err := EncodeSequence(Config{Qp: 16}, frames)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bs[:len(bs)/2]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Flip a bit deep in the stream: decode must either error or at least
	// not panic.
	corrupt := make([]byte, len(bs))
	copy(corrupt, bs)
	corrupt[len(corrupt)/2] ^= 0x10
	_, _ = Decode(corrupt)
}

func TestChromaMVDerivation(t *testing.T) {
	cases := []struct {
		luma, chroma mvfield.MV
	}{
		{mvfield.Zero, mvfield.Zero},
		{mvfield.MV{X: 2, Y: 2}, mvfield.MV{X: 1, Y: 1}},   // 1 pel → 0.5 chroma pel
		{mvfield.MV{X: 4, Y: -4}, mvfield.MV{X: 2, Y: -2}}, // 2 pel → 1 chroma pel
		{mvfield.MV{X: 3, Y: -3}, mvfield.MV{X: 2, Y: -2}}, // 1.5 pel → rounds away
		{mvfield.MV{X: 1, Y: -1}, mvfield.MV{X: 1, Y: -1}}, // 0.5 pel → 0.5 chroma pel
	}
	for _, c := range cases {
		if got := chromaMV(c.luma); got != c.chroma {
			t.Errorf("chromaMV(%v) = %v, want %v", c.luma, got, c.chroma)
		}
	}
}

func TestFrameTypeString(t *testing.T) {
	if IFrame.String() != "I" || PFrame.String() != "P" {
		t.Fatal("frame type names wrong")
	}
}

func TestSequenceStatsZeroValues(t *testing.T) {
	var s SequenceStats
	if s.AvgPSNRY() != 0 || s.BitrateKbps() != 0 || s.AvgSearchPointsPerMB() != 0 || s.AvgSearchEvaluatedPerMB() != 0 || s.TotalBits() != 0 {
		t.Fatal("empty stats must be zero")
	}
}

func TestBitrateUsesFPS(t *testing.T) {
	frames := testFrames(video.Carphone, 3)
	s30, _, err := EncodeSequence(Config{Qp: 16, FPS: 30}, frames)
	if err != nil {
		t.Fatal(err)
	}
	s10, _, err := EncodeSequence(Config{Qp: 16, FPS: 10}, frames)
	if err != nil {
		t.Fatal(err)
	}
	r30, r10 := s30.BitrateKbps(), s10.BitrateKbps()
	if r30 <= 0 || r10 <= 0 {
		t.Fatal("rates must be positive")
	}
	ratio := r30 / r10
	if ratio < 2.9 || ratio > 3.1 {
		t.Fatalf("rate ratio %.3f, want 3.0 (same bits, 3x fps)", ratio)
	}
}

func TestMBModeCountsArePartition(t *testing.T) {
	frames := testFrames(video.TableTennis, 4)
	stats, _, err := EncodeSequence(Config{Qp: 16}, frames)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range stats.Frames {
		if f.IntraMBs+f.InterMBs+f.SkipMBs != f.Macroblocks {
			t.Fatalf("frame %d: %d+%d+%d != %d", i, f.IntraMBs, f.InterMBs, f.SkipMBs, f.Macroblocks)
		}
	}
}

func TestPixelDecimationEncodePath(t *testing.T) {
	frames := testFrames(video.Carphone, 4)
	full, _, err := EncodeSequence(Config{Qp: 16}, frames)
	if err != nil {
		t.Fatal(err)
	}
	deci, bs, err := EncodeSequence(Config{Qp: 16, PixelDecimation: true}, frames)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bs); err != nil {
		t.Fatal(err)
	}
	// Decimated search picks worse vectors (especially at half-pel, where
	// the subsampled grid sees only a quarter of the interpolation); the
	// literature reports up to ~1 dB loss and so do we.
	if deci.AvgPSNRY() < full.AvgPSNRY()-1.0 {
		t.Fatalf("decimated PSNR %.2f vs full %.2f", deci.AvgPSNRY(), full.AvgPSNRY())
	}
}
