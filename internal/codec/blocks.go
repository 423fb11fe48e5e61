package codec

import (
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/mvfield"
)

// Block-level coding primitives shared by the encoder and decoder. The
// reconstruction functions here are the single source of truth for both
// sides, which is what makes the decoder bit-identical to the encoder's
// reference loop.

// loadBlock copies the 8×8 samples of p anchored at (x, y) into b.
func loadBlock(b *dct.Block, p *frame.Plane, x, y int) {
	for r := 0; r < 8; r++ {
		row := p.Pix[(y+r)*p.Stride+x : (y+r)*p.Stride+x+8]
		for c := 0; c < 8; c++ {
			b[r*8+c] = int32(row[c])
		}
	}
}

// storeBlock writes b (clamped to 8-bit) into p at (x, y).
func storeBlock(p *frame.Plane, x, y int, b *dct.Block) {
	for r := 0; r < 8; r++ {
		row := p.Pix[(y+r)*p.Stride+x : (y+r)*p.Stride+x+8]
		for c := 0; c < 8; c++ {
			row[c] = frame.ClampU8(int(b[r*8+c]))
		}
	}
}

// predBlock fetches the 8×8 motion-compensated prediction for the block
// anchored at (x, y) with vector mv (half-pel units). Full-pel vectors
// (both components even — which includes every skip block and most chroma
// vectors) read the integer reference plane directly; true half-pel
// vectors are interpolated from the reference plane by the view's Block.
func predBlock(b *dct.Block, ref *frame.Interpolated, x, y int, mv mvfield.MV) {
	if mv.X&1 == 0 && mv.Y&1 == 0 {
		src := ref.Src()
		sx, sy := x+mv.X/2, y+mv.Y/2
		if src.InBounds(sx, sy, 8, 8) {
			for r := 0; r < 8; r++ {
				row := src.Pix[(sy+r)*src.Stride+sx : (sy+r)*src.Stride+sx+8]
				for c := 0; c < 8; c++ {
					b[r*8+c] = int32(row[c])
				}
			}
			return
		}
	}
	var tmp [64]uint8
	ref.Block(tmp[:], 2*x+mv.X, 2*y+mv.Y, 8, 8)
	for i := range tmp {
		b[i] = int32(tmp[i])
	}
}

// storePredBlock writes the motion-compensated prediction for an uncoded
// block straight into p as bytes. The reconstruction of an uncoded block
// is exactly its prediction and prediction samples are already 8-bit, so
// this equals predBlock + reconInterBlock(coded=false) + storeBlock while
// skipping both int32 conversions and the clamp. Full-pel vectors copy
// plane rows directly.
func storePredBlock(p *frame.Plane, x, y int, ref *frame.Interpolated, mv mvfield.MV) {
	if mv.X&1 == 0 && mv.Y&1 == 0 {
		src := ref.Src()
		sx, sy := x+mv.X/2, y+mv.Y/2
		if src.InBounds(sx, sy, 8, 8) {
			for r := 0; r < 8; r++ {
				copy(p.Pix[(y+r)*p.Stride+x:(y+r)*p.Stride+x+8],
					src.Pix[(sy+r)*src.Stride+sx:(sy+r)*src.Stride+sx+8])
			}
			return
		}
	}
	var tmp [64]uint8
	ref.Block(tmp[:], 2*x+mv.X, 2*y+mv.Y, 8, 8)
	for r := 0; r < 8; r++ {
		copy(p.Pix[(y+r)*p.Stride+x:(y+r)*p.Stride+x+8], tmp[r*8:r*8+8])
	}
}

// encodeInterBlock transforms and quantises the residual cur−pred.
// It returns the quantised levels and whether any level is non-zero.
// A perfect prediction (all-zero residual, common on static content)
// skips the transform and quantiser entirely: the DCT of a zero block is
// zero and the dead-zone quantiser maps zero to zero, so the outcome is
// exact by construction.
func encodeInterBlock(levels *dct.Block, cur, pred *dct.Block, qp int) bool {
	var resid dct.Block
	zero := true
	for i := range resid {
		d := cur[i] - pred[i]
		resid[i] = d
		zero = zero && d == 0
	}
	if zero {
		*levels = dct.Block{}
		return false
	}
	dct.Forward(&resid, &resid)
	dct.QuantizeInter(levels, &resid, qp)
	for _, l := range levels {
		if l != 0 {
			return true
		}
	}
	return false
}

// reconInterBlock reconstructs an inter block from its prediction and
// quantised levels (coded == false means all-zero levels).
func reconInterBlock(out, pred, levels *dct.Block, coded bool, qp int) {
	if !coded {
		*out = *pred
		return
	}
	var coef dct.Block
	dct.DequantizeInter(&coef, levels, qp)
	dct.Inverse(&coef, &coef)
	for i := range out {
		out[i] = pred[i] + coef[i]
	}
}

// encodeIntraBlock transforms and quantises raw samples.
func encodeIntraBlock(levels *dct.Block, cur *dct.Block, qp int) {
	var coef dct.Block
	dct.Forward(&coef, cur)
	dct.QuantizeIntra(levels, &coef, qp)
}

// reconIntraBlock reconstructs an intra block from quantised levels.
func reconIntraBlock(out, levels *dct.Block, qp int) {
	var coef dct.Block
	dct.DequantizeIntra(&coef, levels, qp)
	dct.Inverse(out, &coef)
}

// acCoded reports whether any AC coefficient (index > 0) is non-zero.
func acCoded(levels *dct.Block) bool {
	for i := 1; i < len(levels); i++ {
		if levels[i] != 0 {
			return true
		}
	}
	return false
}

// chromaMV derives the chroma-plane motion vector from a luma vector,
// halving each component and rounding away from zero to the nearest
// half-pel position (the H.263 derivation up to rounding convention).
func chromaMV(mv mvfield.MV) mvfield.MV {
	h := func(v int) int {
		switch {
		case v > 0:
			return (v + 1) / 2
		case v < 0:
			return -((-v + 1) / 2)
		}
		return 0
	}
	return mvfield.MV{X: h(mv.X), Y: h(mv.Y)}
}

// lumaBlockOffsets are the four 8×8 luma blocks of a macroblock in coding
// order (top-left, top-right, bottom-left, bottom-right).
var lumaBlockOffsets = [4][2]int{{0, 0}, {8, 0}, {0, 8}, {8, 8}}
