package metrics

import (
	"fmt"

	"repro/internal/frame"
)

// Batched full search with successive elimination.
//
// A full search scores every candidate of a clipped window in one call
// (ScanSpiral) instead of one dispatch per candidate. Before the scan,
// BoundGrid computes a lower bound on every candidate's SAD from row
// sums — the multilevel successive-elimination bound (Li & Salari 1995;
// Gao, Duanmu & Zou 2000):
//
//	LB(u, v) = Σ_y |C_y − S(bx+u, by+v+y)| ≤ SAD(u, v)
//
// where C_y is the sum of current-block row y and S(x, y) the sum of the
// 16 reference samples starting at (x, y) (frame.Interpolated.RowSums).
// Each term is |Σa − Σb| ≤ Σ|a − b| for one row, so the bound never
// exceeds the SAD. The scan skips a candidate whose bound is ≥ the
// running minimum: it cannot be strictly better.

// Window is a full-search window clipped to the legal rectangle: every
// displacement (u, v) with U0 ≤ u ≤ U1 and V0 ≤ v ≤ V1 keeps the block
// inside the reference plane.
type Window struct{ U0, V0, U1, V1 int }

// Cols returns the number of horizontal displacements in the window.
func (w Window) Cols() int { return w.U1 - w.U0 + 1 }

// Rows returns the number of vertical displacements in the window.
func (w Window) Rows() int { return w.V1 - w.V0 + 1 }

// Empty reports whether the window holds no candidate.
func (w Window) Empty() bool { return w.U1 < w.U0 || w.V1 < w.V0 }

// Count returns the number of candidates in the window.
func (w Window) Count() int {
	if w.Empty() {
		return 0
	}
	return w.Cols() * w.Rows()
}

// Contains reports whether candidate o lies in the window.
func (w Window) Contains(o Offset) bool {
	u, v := int(o.U), int(o.V)
	return u >= w.U0 && u <= w.U1 && v >= w.V0 && v <= w.V1
}

// Offset is one full-pel candidate displacement of a scan order.
type Offset struct{ U, V int16 }

// GridStride returns the row stride of the bound grid for win: the
// window width rounded up to a multiple of 16 lanes, so a vector kernel
// stores whole vectors without a scalar tail.
func GridStride(win Window) int { return (win.Cols() + 15) &^ 15 }

// maxBoundRows is the tallest block the bound covers: 16 rows of at most
// 16·255 keep every exact bound below 2^16, so the saturating 16-bit
// lanes of the vector tiers never actually saturate.
const maxBoundRows = 16

// BoundGrid fills grid with LB(u, v) for every candidate of win, at
// grid[(v−V0)·GridStride(win) + (u−U0)], for the RowSumWidth×h block of
// cur at (cx, cy) whose zero-displacement position in the reference is
// (bx, by). sums/stride is the reference's row-sum phase; it must be
// filled over columns bx+U0 … bx+U0+GridStride(win)−1 (clipped to the
// valid range) and rows by+V0 … by+V1+h−1. Adds saturate at 65535, which
// only ever lowers a bound. Requires 1 ≤ h ≤ 16 and a window that keeps
// the block inside the plane the sums were taken from.
func BoundGrid(cur *frame.Plane, cx, cy, h int, sums []uint16, stride, bx, by int, win Window, grid []uint16) {
	gw, gh, gs := win.Cols(), win.Rows(), GridStride(win)
	x0, y0 := bx+win.U0, by+win.V0
	if win.Empty() || h < 1 || h > maxBoundRows || !cur.InBounds(cx, cy, frame.RowSumWidth, h) ||
		x0 < 0 || y0 < 0 || x0+gs > stride || (y0+gh+h-1)*stride > len(sums) || len(grid) < gh*gs {
		panic(fmt.Sprintf("metrics: BoundGrid window %+v at (%d,%d) h=%d out of range", win, bx, by, h))
	}
	kernels().boundGrid(cur, cx, cy, h, sums[y0*stride+x0:], stride, gw, gh, grid, gs)
}

// ScanSpiral runs the full search of the w×h block of cur at (cx, cy)
// over win, whose zero displacement sits at (bx, by) in ref. It visits
// the candidates of order that lie in win, in that order, and returns
// the first one with the smallest SAD, its exact SAD, and how many
// candidates the SAD kernel actually ran on (the rest were skipped by
// the bound). The running minimum is strict: a later candidate replaces
// the incumbent only with a smaller SAD.
//
// grid, when non-nil, is BoundGrid's output for the same block and
// window; a candidate whose bound is ≥ the running minimum is skipped.
// With grid nil every candidate in win is evaluated. Losing candidates
// run capped with the running minimum, so only a winner's SAD is ever
// computed in full. Returns sad −1 when no candidate of order lies in
// win.
func ScanSpiral(cur *frame.Plane, cx, cy int, ref *frame.Plane, bx, by, w, h int, win Window, order []Offset, grid []uint16) (best Offset, sad, evaluated int) {
	gs := GridStride(win)
	if win.Empty() || w < 1 || h < 1 || !cur.InBounds(cx, cy, w, h) ||
		!ref.InBounds(bx+win.U0, by+win.V0, win.Cols()+w-1, win.Rows()+h-1) ||
		(grid != nil && len(grid) < win.Rows()*gs) {
		panic(fmt.Sprintf("metrics: ScanSpiral window %+v of %dx%d block at (%d,%d) out of range", win, w, h, bx, by))
	}
	// The kernels address candidates from raw window pointers; one check
	// of the window's first and last byte covers every address they form.
	_ = ref.Pix[(by+win.V0)*ref.Stride+bx+win.U0]
	_ = ref.Pix[(by+win.V1+h-1)*ref.Stride+bx+win.U1+w-1]
	if len(order) == 0 {
		return Offset{}, -1, 0
	}
	var i int
	if w%8 == 0 && w*h <= 256 {
		i, sad, evaluated = kernels().scan(cur, cx, cy, ref, bx, by, w, h, win, order, grid, gs)
	} else {
		i, sad, evaluated = scanCapped(SADCapped)(cur, cx, cy, ref, bx, by, w, h, win, order, grid, gs)
	}
	if i < 0 {
		return Offset{}, -1, evaluated
	}
	return order[i], sad, evaluated
}

// ScanFunc runs ScanSpiral's candidate loop over a caller-supplied
// score: score(u, v, cap) returns the SAD of displacement (u, v), or any
// value > cap once it is known to exceed cap. Searchers that need the
// exact score of every candidate, or score something the bound does not
// cover, run the same scan through it with a nil grid.
func ScanFunc(win Window, order []Offset, grid []uint16, score func(u, v, cap int) int) (best Offset, sad, evaluated int) {
	gs := GridStride(win)
	if grid != nil && len(grid) < win.Rows()*gs {
		panic(fmt.Sprintf("metrics: ScanFunc grid of %d bounds for window %+v", len(grid), win))
	}
	i, sad, evaluated := scanFunc(win, order, grid, gs, score)
	if i < 0 {
		return Offset{}, -1, evaluated
	}
	return order[i], sad, evaluated
}

// scanFunc is the Go form of the scan kernel contract and, with the
// scalar capped SAD as score, the oracle every other tier's scan is
// tested against. Capping at the minimum minus one stops a candidate as
// soon as it cannot be strictly better; the value it then returns is
// discarded.
func scanFunc(win Window, order []Offset, grid []uint16, gs int, score func(u, v, cap int) int) (idx, sad, evaluated int) {
	idx, sad = -1, int(^uint(0)>>1)
	for i, o := range order {
		if !win.Contains(o) {
			continue
		}
		u, v := int(o.U), int(o.V)
		if grid != nil && int(grid[(v-win.V0)*gs+u-win.U0]) >= sad {
			continue
		}
		evaluated++
		if s := score(u, v, sad-1); s < sad {
			idx, sad = i, s
		}
	}
	if idx < 0 {
		sad = -1
	}
	return idx, sad, evaluated
}

// scanCapped adapts a SADCapped-family kernel to the scan table entry.
func scanCapped(capped func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int) func(cur *frame.Plane, cx, cy int, ref *frame.Plane, bx, by, w, h int, win Window, order []Offset, grid []uint16, gs int) (int, int, int) {
	return func(cur *frame.Plane, cx, cy int, ref *frame.Plane, bx, by, w, h int, win Window, order []Offset, grid []uint16, gs int) (int, int, int) {
		return scanFunc(win, order, grid, gs, func(u, v, cap int) int {
			return capped(cur, cx, cy, ref, bx+u, by+v, w, h, cap)
		})
	}
}

// boundGridScalar is the reference bound grid: rs starts at the window
// origin's row sum, grid rows are gs apart. Exactly gw lanes per row.
func boundGridScalar(cur *frame.Plane, cx, cy, h int, rs []uint16, stride, gw, gh int, grid []uint16, gs int) {
	var c [maxBoundRows]int
	for y := 0; y < h; y++ {
		c[y] = planeSumScalar(cur, cx, cy+y, frame.RowSumWidth, 1)
	}
	for v := 0; v < gh; v++ {
		for u := 0; u < gw; u++ {
			s := 0
			for y := 0; y < h; y++ {
				d := c[y] - int(rs[(v+y)*stride+u])
				if d < 0 {
					d = -d
				}
				s += d
			}
			grid[v*gs+u] = uint16(min(s, 0xffff))
		}
	}
}
