package frame

import (
	"sync"
	"testing"
)

// refRowSum is the direct definition of the row-sum phase.
func refRowSum(p *Plane, x, y int) uint16 {
	s := 0
	for i := 0; i < RowSumWidth; i++ {
		s += int(p.At(x+i, y))
	}
	return uint16(s)
}

// checkRowSums compares every entry of [x0,x1]×[y0,y1] against the
// definition.
func checkRowSums(t *testing.T, ip *Interpolated, src *Plane, x0, y0, x1, y1 int) {
	t.Helper()
	sums, stride := ip.RowSums(x0, y0, x1, y1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if got, want := sums[y*stride+x], refRowSum(src, x, y); got != want {
				t.Fatalf("%dx%d: S(%d,%d) = %d, want %d", src.W, src.H, x, y, got, want)
			}
		}
	}
}

// TestRowSumsMatchDefinition covers tile-aligned and ragged sizes, tight
// and padded sources, and requests that reach past the valid columns
// (they are clipped, not filled).
func TestRowSumsMatchDefinition(t *testing.T) {
	for _, tc := range []struct{ w, h, apron int }{
		{16, 16, 0}, {48, 32, MinInterpApron}, {33, 17, 0}, {352, 288, 16}, {20, 5, 4},
	} {
		src := noisyPaddedPlane(tc.w, tc.h, tc.apron, int64(tc.w*7+tc.h))
		ip := Interpolate(src)
		checkRowSums(t, ip, src, 0, 0, tc.w-RowSumWidth, tc.h-1)
		if sums, _ := ip.RowSums(tc.w-RowSumWidth, 0, tc.w+40, tc.h+40); len(sums) != tc.w*tc.h {
			t.Fatalf("%dx%d: phase holds %d sums, want %d", tc.w, tc.h, len(sums), tc.w*tc.h)
		}
		ip.Release()
	}
	if sums, _ := Interpolate(NewPlane(15, 4)).RowSums(0, 0, 14, 3); sums != nil {
		t.Fatal("a source narrower than RowSumWidth has no row sums")
	}
}

// TestRowSumsPooledReuse: a recycled view re-fills its row sums for the
// new source instead of serving the previous frame's.
func TestRowSumsPooledReuse(t *testing.T) {
	a := noisyPaddedPlane(64, 48, MinInterpApron, 1)
	b := noisyPaddedPlane(64, 48, MinInterpApron, 2)
	ip := Interpolate(a)
	checkRowSums(t, ip, a, 0, 0, 64-RowSumWidth, 47)
	ip.Release()
	ip = Interpolate(b)
	checkRowSums(t, ip, b, 0, 0, 64-RowSumWidth, 47)
	ip.Release()
}

// TestRowSumsConcurrentFirstTouch has many goroutines first-touch
// overlapping windows of a fresh view in different orders, as wavefront
// workers do. Under -race this certifies the claim protocol for the
// row-sum tiles; the value checks certify that every reader sees the
// finished fill.
func TestRowSumsConcurrentFirstTouch(t *testing.T) {
	src := noisyPaddedPlane(176, 144, 16, 5)
	for round := 0; round < 4; round++ {
		ip := Interpolate(src)
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					x0 := (i*37 + w*23) % (176 - RowSumWidth)
					y0 := (i*11 + w*19) % 144
					x1, y1 := min(x0+46, 176-RowSumWidth), min(y0+30, 143)
					sums, stride := ip.RowSums(x0, y0, x1, y1)
					for y := y0; y <= y1; y += 3 {
						for x := x0; x <= x1; x += 5 {
							if sums[y*stride+x] != refRowSum(src, x, y) {
								errs <- "row sum mismatch under concurrent first touch"
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		ip.Release()
	}
}
