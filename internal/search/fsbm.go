package search

import (
	"sync"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
)

// FSBM is the full search block matching algorithm (§2.3): it evaluates
// every integer position within ±Range and then the 8 half-pel neighbours
// of the winner — (2p+1)²+8 = 969 candidates for the paper's p=15.
// It is the quality reference and the cost ceiling of the study.
type FSBM struct {
	// NoHalfPel disables the half-pel refinement step (integer-only
	// search), used by the Fig. 4 study and ablation benches.
	NoHalfPel bool
}

// Name implements Searcher.
func (f *FSBM) Name() string {
	if f.NoHalfPel {
		return "FSBM-int"
	}
	return "FSBM"
}

// Search implements Searcher. The ±Range window is clipped once to the
// legal rectangle and scanned in one batched call, centre-outward (the
// spiral order of spiral.go). The spiral visits candidates in
// non-decreasing |u|+|v|, so better()'s tie-break toward the shorter
// vector reduces to a strict SAD < minimum; a candidate whose successive-
// elimination bound is ≥ the minimum can never win and is skipped. The
// winner and Points are therefore identical to a raster scan of every
// legal candidate; Evaluated counts the candidates the SAD kernel ran on.
func (f *FSBM) Search(in *Input) Result {
	win := in.window()
	if win.Empty() {
		// Degenerate: no legal candidate (cannot happen for in-frame
		// blocks since (0,0) is always legal); report the zero vector.
		return Result{MV: mvfield.Zero, SAD: in.SAD(mvfield.Zero), Points: 1, Evaluated: 1}
	}
	var best metrics.Offset
	var bestSAD, evaluated int
	if in.Collect != nil || in.PixelDecimation {
		// The Fig. 4 study needs the exact SAD of every candidate, and
		// PixelDecimation scores a scaled estimate no row-sum bound
		// holds for: both run the same scan unpruned, scoring through
		// Input.SAD.
		best, bestSAD, evaluated = metrics.ScanFunc(win, spiralOrder(in.Range), nil, func(u, v, _ int) int {
			return in.SAD(mvfield.FromFullPel(u, v))
		})
	} else {
		best, bestSAD, evaluated = scanPruned(in, win)
	}
	mv, pts := mvfield.FromFullPel(int(best.U), int(best.V)), win.Count()
	if !f.NoHalfPel {
		hmv, sad, extra := refineHalfPel(in, mv, bestSAD)
		mv, bestSAD, pts, evaluated = hmv, sad, pts+extra, evaluated+extra
	}
	return Result{MV: mv, SAD: bestSAD, Points: pts, Evaluated: evaluated}
}

// window clips the ±Range full-pel window to the displacements that keep
// the block inside the reference: u ∈ [−BX, Ref.W−W−BX], likewise v.
func (in *Input) window() metrics.Window {
	r := in.Range
	return metrics.Window{
		U0: max(-r, -in.BX), U1: min(r, in.Ref.W-in.W-in.BX),
		V0: max(-r, -in.BY), V1: min(r, in.Ref.H-in.H-in.BY),
	}
}

// gridPool recycles bound grids: one per in-flight full search, so a
// macroblock allocates nothing once the pool is warm.
var gridPool = sync.Pool{New: func() any { return new([]uint16) }}

// scanPruned runs the batched scan, pruned by the successive-elimination
// bound when the block is 16 wide and the reference view carries its
// row-sum phase (in.RefI over in.Ref); otherwise unpruned.
func scanPruned(in *Input, win metrics.Window) (metrics.Offset, int, int) {
	var grid []uint16
	if in.W == frame.RowSumWidth && in.H <= 16 && in.RefI != nil && in.RefI.Src() == in.Ref {
		gs := metrics.GridStride(win)
		x0, y0 := in.BX+win.U0, in.BY+win.V0
		sums, stride := in.RefI.RowSums(x0, y0, x0+gs-1, in.BY+win.V1+in.H-1)
		gp := gridPool.Get().(*[]uint16)
		defer gridPool.Put(gp)
		if n := win.Rows() * gs; cap(*gp) < n {
			*gp = make([]uint16, n)
		}
		grid = (*gp)[:win.Rows()*gs]
		metrics.BoundGrid(in.Cur, in.BX, in.BY, in.H, sums, stride, in.BX, in.BY, win, grid)
	}
	return metrics.ScanSpiral(in.Cur, in.BX, in.BY, in.Ref, in.BX, in.BY, in.W, in.H, win, spiralOrder(in.Range), grid)
}
