package search

import (
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/mvfield"
)

// rasterFSBM is the seed's raster-order full search, kept as the reference
// the spiral scan must match exactly (winner, SAD and Points), including
// the capped-SAD early-termination interplay with better().
func rasterFSBM(in *Input) Result {
	best := mvfield.Zero
	bestSAD := -1
	pts := 0
	for v := -in.Range; v <= in.Range; v++ {
		for u := -in.Range; u <= in.Range; u++ {
			mv := mvfield.FromFullPel(u, v)
			if !in.Legal(mv) {
				continue
			}
			pts++
			if bestSAD < 0 {
				best, bestSAD = mv, in.SAD(mv)
				continue
			}
			s := in.SADCapped(mv, bestSAD)
			if better(s, mv, bestSAD, best) {
				best, bestSAD = mv, s
			}
		}
	}
	if bestSAD < 0 {
		return Result{MV: mvfield.Zero, SAD: in.SAD(mvfield.Zero), Points: 1}
	}
	return Result{MV: best, SAD: bestSAD, Points: pts}
}

func TestSpiralOffsetsOrder(t *testing.T) {
	for _, r := range []int{1, 4, 15} {
		offs := spiralOffsets(r)
		n := 2*r + 1
		if len(offs) != n*n {
			t.Fatalf("range %d: %d offsets, want %d", r, len(offs), n*n)
		}
		seen := make(map[mvfield.MV]bool, len(offs))
		for i, mv := range offs {
			if seen[mv] {
				t.Fatalf("range %d: duplicate offset %v", r, mv)
			}
			seen[mv] = true
			if i > 0 && offs[i-1].L1() > mv.L1() {
				t.Fatalf("range %d: offsets not sorted centre-outward at %d: %v after %v", r, i, mv, offs[i-1])
			}
			if i > 0 && offs[i-1].L1() == mv.L1() {
				// Within one ring the raster (v, then u) order must hold so
				// tie winners match the raster scan.
				if offs[i-1].Y > mv.Y || (offs[i-1].Y == mv.Y && offs[i-1].X > mv.X) {
					t.Fatalf("range %d: ring order not raster at %d: %v after %v", r, i, mv, offs[i-1])
				}
			}
		}
	}
}

// TestSpiralMatchesRaster drives both scans over random content —
// including flat regions that maximise SAD ties — at interior and border
// blocks, and requires bit-identical results.
func TestSpiralMatchesRaster(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	flat := frame.NewPlane(96, 96) // all-zero: every candidate ties
	noisy := frame.NewPlane(96, 96)
	rng.Read(noisy.Pix)
	quant := frame.NewPlane(96, 96) // coarse blocks: many partial ties
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			quant.Set(x, y, uint8((x/8+y/8)%3*40))
		}
	}
	for _, tc := range []struct {
		name     string
		cur, ref *frame.Plane
	}{
		{"flat", flat, flat},
		{"noisy", noisy, noisy},
		{"quantised", quant, quant},
		{"cross", noisy, quant},
	} {
		ip := frame.Interpolate(tc.ref)
		for _, anchor := range [][2]int{{0, 0}, {40, 40}, {80, 80}, {16, 0}, {0, 64}} {
			for _, rng := range []int{4, 15} {
				in := &Input{
					Cur: tc.cur, Ref: tc.ref, RefI: ip,
					BX: anchor[0], BY: anchor[1], W: 16, H: 16, Range: rng,
				}
				for _, nhp := range []bool{true, false} {
					f := &FSBM{NoHalfPel: nhp}
					got := f.Search(in)
					in2 := *in
					want := rasterFSBM(&in2)
					if !nhp {
						mv, sad, extra := refineHalfPel(&in2, want.MV, want.SAD)
						want = Result{MV: mv, SAD: sad, Points: want.Points + extra}
					}
					// Evaluated is the batched scan's own count (the raster
					// reference prunes nothing); it can only fall short of
					// Points.
					if got.MV != want.MV || got.SAD != want.SAD || got.Points != want.Points ||
						got.Evaluated < 1 || got.Evaluated > got.Points {
						t.Errorf("%s anchor=%v range=%d nohalfpel=%v: spiral %+v != raster %+v",
							tc.name, anchor, rng, nhp, got, want)
					}
				}
			}
		}
	}
}
