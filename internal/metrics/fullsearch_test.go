package metrics

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/frame"
)

// testWindow clips ±r around the w×h block at (bx, by) to ref.
func testWindow(ref *frame.Plane, bx, by, w, h, r int) Window {
	return Window{U0: max(-r, -bx), V0: max(-r, -by), U1: min(r, ref.W-w-bx), V1: min(r, ref.H-h-by)}
}

// testOrder is the full-search spiral: every (u, v) in ±r, by ascending
// |u|+|v|, ties in raster order.
func testOrder(r int) []Offset {
	var order []Offset
	for v := -r; v <= r; v++ {
		for u := -r; u <= r; u++ {
			order = append(order, Offset{int16(u), int16(v)})
		}
	}
	l1 := func(o Offset) int { return max(int(o.U), -int(o.U)) + max(int(o.V), -int(o.V)) }
	sort.SliceStable(order, func(i, j int) bool { return l1(order[i]) < l1(order[j]) })
	return order
}

// testGrid computes the bound grid of the 16×h block at (cx, cy) with the
// active tier, reading the row sums of a lazy view of ref.
func testGrid(t testing.TB, cur *frame.Plane, cx, cy, h int, ref *frame.Plane, bx, by int, win Window) []uint16 {
	t.Helper()
	ip := frame.Interpolate(ref)
	defer ip.Release()
	gs := GridStride(win)
	sums, stride := ip.RowSums(bx+win.U0, by+win.V0, bx+win.U0+gs-1, by+win.V1+h-1)
	grid := make([]uint16, win.Rows()*gs)
	BoundGrid(cur, cx, cy, h, sums, stride, bx, by, win, grid)
	return grid
}

// bruteScan is the exhaustive oracle: the first candidate of order in
// win with the smallest exact SAD.
func bruteScan(cur *frame.Plane, cx, cy int, ref *frame.Plane, bx, by, w, h int, win Window, order []Offset) (Offset, int, int) {
	best, bestSAD, n := Offset{}, -1, 0
	for _, o := range order {
		if !win.Contains(o) {
			continue
		}
		n++
		if s := sadScalar(cur, cx, cy, ref, bx+int(o.U), by+int(o.V), w, h); bestSAD < 0 || s < bestSAD {
			best, bestSAD = o, s
		}
	}
	return best, bestSAD, n
}

// checkFullSearchKernels cross-checks every tier's bound grid and scan for
// one block: grids equal the scalar grid lane for lane and never exceed
// the exact SAD; scans find the oracle's winner and SAD, with and without
// the grid, and evaluate exactly as many candidates as the scalar scan.
func checkFullSearchKernels(t *testing.T, cur *frame.Plane, cx, cy int, ref *frame.Plane, bx, by, w, h, r int) {
	t.Helper()
	win := testWindow(ref, bx, by, w, h, r)
	if win.Empty() {
		return
	}
	order := testOrder(r)
	wantBest, wantSAD, inWin := bruteScan(cur, cx, cy, ref, bx, by, w, h, win, order)
	gs := GridStride(win)
	var wantGrid []uint16
	if w == frame.RowSumWidth {
		restore, _ := SetKernelISA("scalar")
		wantGrid = testGrid(t, cur, cx, cy, h, ref, bx, by, win)
		restore()
		for v := 0; v < win.Rows(); v++ {
			for u := 0; u < win.Cols(); u++ {
				if b, s := int(wantGrid[v*gs+u]), sadScalar(cur, cx, cy, ref, bx+win.U0+u, by+win.V0+v, w, h); b > s {
					t.Fatalf("bound %d exceeds SAD %d at (%d,%d)", b, s, win.U0+u, win.V0+v)
				}
			}
		}
	}
	restore, _ := SetKernelISA("scalar")
	_, _, wantEval := ScanSpiral(cur, cx, cy, ref, bx, by, w, h, win, order, wantGrid)
	restore()
	for _, isa := range KernelISAs() {
		restore, err := SetKernelISA(isa)
		if err != nil {
			t.Fatal(err)
		}
		if wantGrid != nil {
			grid := testGrid(t, cur, cx, cy, h, ref, bx, by, win)
			for v := 0; v < win.Rows(); v++ {
				for u := 0; u < win.Cols(); u++ {
					if got, want := grid[v*gs+u], wantGrid[v*gs+u]; got != want {
						t.Fatalf("%s BoundGrid h=%d win=%+v (%d,%d): got %d want %d", isa, h, win, u, v, got, want)
					}
				}
			}
			best, sad, eval := ScanSpiral(cur, cx, cy, ref, bx, by, w, h, win, order, grid)
			if best != wantBest || sad != wantSAD || eval != wantEval {
				t.Fatalf("%s pruned scan %dx%d win=%+v: got %v/%d/%d evaluated, want %v/%d/%d",
					isa, w, h, win, best, sad, eval, wantBest, wantSAD, wantEval)
			}
		}
		best, sad, eval := ScanSpiral(cur, cx, cy, ref, bx, by, w, h, win, order, nil)
		if best != wantBest || sad != wantSAD || eval != inWin {
			t.Fatalf("%s unpruned scan %dx%d win=%+v: got %v/%d/%d evaluated, want %v/%d/%d",
				isa, w, h, win, best, sad, eval, wantBest, wantSAD, inWin)
		}
		restore()
	}
}

// TestFullSearchKernelsAcrossISAs covers the border-clipped windows (every
// anchor class), block shapes that take the vector scan and the Go
// fallback, and padded strides.
func TestFullSearchKernelsAcrossISAs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cur := paddedPlane(rng, 80, 64, 3)
	ref := paddedPlane(rng, 80, 64, 9)
	// A smooth reference makes the bound tight, so pruning actually
	// fires; pure noise would leave almost every bound below the minimum.
	smooth := paddedPlane(rng, 80, 64, 9)
	for y := 0; y < smooth.H; y++ {
		for x := 0; x < smooth.W; x++ {
			smooth.Pix[y*smooth.Stride+x] = uint8(3*x + 2*y + rng.Intn(4))
		}
	}
	for _, sz := range [][2]int{{16, 16}, {16, 8}, {16, 1}, {16, 7}, {8, 8}, {8, 16}, {24, 8}, {12, 8}} {
		w, h := sz[0], sz[1]
		for _, a := range [][2]int{{0, 0}, {32, 24}, {80 - w, 64 - h}, {0, 64 - h}, {80 - w, 0}, {5, 40}} {
			for _, r := range []int{0, 1, 4, 15} {
				checkFullSearchKernels(t, cur, a[0], a[1], ref, a[0], a[1], w, h, r)
				checkFullSearchKernels(t, smooth, a[0], a[1], smooth, a[0], a[1], w, h, r)
			}
		}
	}
}

// TestBoundGridSaturatedBlocks pins the extremes: a white block against a
// black reference makes every row term 16·255, so the bound reaches its
// 65280 maximum and equals the SAD exactly on every tier.
func TestBoundGridSaturatedBlocks(t *testing.T) {
	cur := frame.NewPlane(48, 48)
	ref := frame.NewPlane(48, 48)
	cur.Fill(255)
	withEachISA(t, func(t *testing.T, isa string) {
		win := testWindow(ref, 16, 16, 16, 16, 8)
		grid := testGrid(t, cur, 16, 16, 16, ref, 16, 16, win)
		gs := GridStride(win)
		for v := 0; v < win.Rows(); v++ {
			for u := 0; u < win.Cols(); u++ {
				if grid[v*gs+u] != 16*16*255 {
					t.Fatalf("bound at (%d,%d) = %d, want %d", u, v, grid[v*gs+u], 16*16*255)
				}
			}
		}
		best, sad, eval := ScanSpiral(cur, 16, 16, ref, 16, 16, 16, 16, win, testOrder(8), grid)
		if best != (Offset{}) || sad != 16*16*255 || eval != 1 {
			t.Fatalf("uniform scan: got %v/%d/%d evaluated, want centre/%d/1", best, sad, eval, 16*16*255)
		}
	})
}

// FuzzFullSearchKernels drives arbitrary pixels, block shapes, anchors
// and ranges through every tier's bound grid and scan.
func FuzzFullSearchKernels(f *testing.F) {
	f.Add([]byte("fullsearchfullsearch"), uint8(1), uint8(15), uint8(3), uint8(5), uint8(4))
	f.Add(make([]byte, 40), uint8(0), uint8(7), uint8(0), uint8(0), uint8(15))
	f.Add([]byte{255, 0, 255, 0}, uint8(1), uint8(15), uint8(9), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, pix []byte, wSel, hSel, bxSel, bySel, rSel uint8) {
		widths := []int{8, 16, 24}
		w := widths[int(wSel)%len(widths)]
		h := 1 + int(hSel)%16
		pw, ph := w+20, h+20
		need := pw * ph
		buf := make([]uint8, 2*need)
		for i := range buf {
			if len(pix) > 0 {
				buf[i] = pix[i%len(pix)] + uint8(i/len(pix))
			}
		}
		cur := &frame.Plane{W: pw, H: ph, Stride: pw, Pix: buf[:need]}
		ref := &frame.Plane{W: pw, H: ph, Stride: pw, Pix: buf[need:]}
		bx, by := int(bxSel)%(pw-w+1), int(bySel)%(ph-h+1)
		checkFullSearchKernels(t, cur, bx, by, ref, bx, by, w, h, int(rSel)%20)
	})
}
