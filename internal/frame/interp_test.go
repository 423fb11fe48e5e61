package frame

import (
	"sync"
	"testing"
	"testing/quick"
)

func rampPlane(w, h int) *Plane {
	p := NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p.Set(x, y, uint8((x*7+y*13)%256))
		}
	}
	return p
}

// refInterpolated is a full-grid half-pel builder kept as the
// differential oracle: one (2W)×(2H) buffer holding all four phases
// interleaved.
type refInterpolated struct {
	W, H int
	Pix  []uint8
}

func refInterpolate(p *Plane) *refInterpolated {
	w2, h2 := 2*p.W, 2*p.H
	ip := &refInterpolated{W: w2, H: h2, Pix: make([]uint8, w2*h2)}
	for y := 0; y < p.H; y++ {
		yB := y + 1
		if yB >= p.H {
			yB = p.H - 1
		}
		rowA := p.Pix[y*p.Stride : y*p.Stride+p.W]
		rowC := p.Pix[yB*p.Stride : yB*p.Stride+p.W]
		out0 := ip.Pix[(2*y)*w2 : (2*y)*w2+w2]
		out1 := ip.Pix[(2*y+1)*w2 : (2*y+1)*w2+w2]
		for x := 0; x < p.W; x++ {
			xB := x + 1
			if xB >= p.W {
				xB = p.W - 1
			}
			a := int(rowA[x])
			b := int(rowA[xB])
			c := int(rowC[x])
			d := int(rowC[xB])
			out0[2*x] = uint8(a)
			out0[2*x+1] = uint8((a + b + 1) >> 1)
			out1[2*x] = uint8((a + c + 1) >> 1)
			out1[2*x+1] = uint8((a + b + c + d + 2) >> 2)
		}
	}
	return ip
}

func (ip *refInterpolated) atClamped(hx, hy int) uint8 {
	hx = min(max(hx, 0), ip.W-1)
	hy = min(max(hy, 0), ip.H-1)
	return ip.Pix[hy*ip.W+hx]
}

func noisyPaddedPlane(w, h, apron int, seed int64) *Plane {
	rng := newTestRNG(seed)
	p := NewPlanePadded(w, h, apron)
	for y := 0; y < h; y++ {
		row := p.Row(y)
		for x := range row {
			row[x] = uint8(rng.next())
		}
	}
	p.ReplicateApron()
	return p
}

// sample predicts the 1×1 block at (hx, hy): one half-pel grid sample.
func sample(ip *Interpolated, hx, hy int) uint8 {
	var v [1]uint8
	ip.Block(v[:], hx, hy, 1, 1)
	return v[0]
}

func TestInterpolateIntegerPositions(t *testing.T) {
	p := rampPlane(16, 12)
	ip := Interpolate(p)
	if ip.W != 32 || ip.H != 24 {
		t.Fatalf("interp size %dx%d, want 32x24", ip.W, ip.H)
	}
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			if sample(ip, 2*x, 2*y) != p.At(x, y) {
				t.Fatalf("integer position (%d,%d) altered", x, y)
			}
		}
	}
}

func TestInterpolateHalfPelRules(t *testing.T) {
	p := NewPlane(2, 2)
	copy(p.Pix, []uint8{10, 20, 30, 50})
	ip := Interpolate(p)
	// b = (A+B+1)/2, c = (A+C+1)/2, d = (A+B+C+D+2)/4
	if got := sample(ip, 1, 0); got != (10+20+1)/2 {
		t.Errorf("horizontal half-pel = %d, want %d", got, (10+20+1)/2)
	}
	if got := sample(ip, 0, 1); got != (10+30+1)/2 {
		t.Errorf("vertical half-pel = %d, want %d", got, (10+30+1)/2)
	}
	if got := sample(ip, 1, 1); got != (10+20+30+50+2)/4 {
		t.Errorf("diagonal half-pel = %d, want %d", got, (10+20+30+50+2)/4)
	}
}

func TestInterpolateEdgeReplication(t *testing.T) {
	p := NewPlane(2, 1)
	copy(p.Pix, []uint8{100, 200})
	ip := Interpolate(p)
	// Right of the last column, B is replicated: b = (200+200+1)/2 = 200.
	if got := sample(ip, 3, 0); got != 200 {
		t.Errorf("edge horizontal half-pel = %d, want 200", got)
	}
	// Below the last row, C replicates A.
	if got := sample(ip, 0, 1); got != 100 {
		t.Errorf("edge vertical half-pel = %d, want 100", got)
	}
}

func TestInterpolateConstantPlane(t *testing.T) {
	p := NewPlane(8, 8)
	p.Fill(77)
	ip := Interpolate(p)
	for hy := 0; hy < ip.H; hy++ {
		for hx := 0; hx < ip.W; hx++ {
			if v := sample(ip, hx, hy); v != 77 {
				t.Fatalf("interp sample (%d,%d) = %d, want 77", hx, hy, v)
			}
		}
	}
}

// TestInterpolatedBlockFastVsSlow compares the row path against the
// per-sample oracle at interior, edge and past-the-edge anchors of a
// tight plane.
func TestInterpolatedBlockFastVsSlow(t *testing.T) {
	p := rampPlane(24, 24)
	ip := Interpolate(p)
	fast := make([]uint8, 8*8)
	for _, pos := range [][2]int{{0, 0}, {5, 7}, {31, 31}, {33, 39}} {
		ip.Block(fast, pos[0], pos[1], 8, 8)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				if slow := halfPelAt(p, pos[0]+2*x, pos[1]+2*y); fast[y*8+x] != slow {
					t.Fatalf("Block at %v sample (%d,%d): fast %d != slow %d", pos, x, y, fast[y*8+x], slow)
				}
			}
		}
	}
}

func TestInterpolatedBlockIntegerMVMatchesCopy(t *testing.T) {
	p := rampPlane(32, 32)
	ip := Interpolate(p)
	blk := make([]uint8, 16*16)
	ip.Block(blk, 2*4, 2*6, 16, 16) // integer MV (4,6)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if blk[y*16+x] != p.At(4+x, 6+y) {
				t.Fatalf("integer-MV block mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestInterpolateRangeProperty(t *testing.T) {
	// Interpolated samples always lie within [min, max] of the source.
	f := func(seed int64) bool {
		rng := newTestRNG(seed)
		p := NewPlane(9, 9)
		lo, hi := uint8(255), uint8(0)
		for i := range p.Pix {
			p.Pix[i] = uint8(rng.next())
			if p.Pix[i] < lo {
				lo = p.Pix[i]
			}
			if p.Pix[i] > hi {
				hi = p.Pix[i]
			}
		}
		ip := Interpolate(p)
		for hy := 0; hy < ip.H; hy++ {
			for hx := 0; hx < ip.W; hx++ {
				if v := sample(ip, hx, hy); v < lo || v > hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyMatchesFullGrid pins every sample the view computes on demand
// byte-equal to the full-grid build, over padded and tight sources: every
// grid position (and a margin around it) as a 1×1 block and through the
// per-sample oracle, then 8×8 blocks at interior, apron and far-out
// anchors.
func TestLazyMatchesFullGrid(t *testing.T) {
	for _, tc := range []struct {
		w, h, apron int
	}{
		{16, 16, MinInterpApron},
		{48, 32, 8},
		{33, 17, MinInterpApron}, // not tile-aligned
		{24, 20, 0},              // tight source
		{8, 8, 0},
		{5, 3, 0},
		{5, 3, 1}, // apron narrower than MinInterpApron
	} {
		src := noisyPaddedPlane(tc.w, tc.h, tc.apron, int64(tc.w*1000+tc.h))
		want := refInterpolate(src)
		ip := Interpolate(src)
		for hy := -5; hy < ip.H+5; hy++ {
			for hx := -5; hx < ip.W+5; hx++ {
				wantv := want.atClamped(hx, hy)
				if got := sample(ip, hx, hy); got != wantv {
					t.Fatalf("%dx%d apron %d: sample(%d,%d) = %d, want %d",
						tc.w, tc.h, tc.apron, hx, hy, got, wantv)
				}
				if got := halfPelAt(src, hx, hy); got != wantv {
					t.Fatalf("%dx%d apron %d: halfPelAt(%d,%d) = %d, want %d",
						tc.w, tc.h, tc.apron, hx, hy, got, wantv)
				}
			}
		}
		blk := make([]uint8, 8*8)
		for _, pos := range [][2]int{
			{1, 1}, {2 * tc.w / 2, 3}, {-1, -1}, {2*tc.w - 3, 2*tc.h - 3},
			{-40, 7}, {7, -40}, {2 * tc.w, 2 * tc.h}, {-2 * HalfPelApron, 2*tc.h + 1},
		} {
			ip.Block(blk, pos[0], pos[1], 8, 8)
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					wantv := want.atClamped(pos[0]+2*x, pos[1]+2*y)
					if blk[y*8+x] != wantv {
						t.Fatalf("%dx%d apron %d: Block(%v) sample (%d,%d) = %d, want %d",
							tc.w, tc.h, tc.apron, pos, x, y, blk[y*8+x], wantv)
					}
				}
			}
		}
		ip.Release()
	}
}

// TestLazyPooledReuse checks a released view recycled for a new source
// frame predicts from the new source.
func TestLazyPooledReuse(t *testing.T) {
	a := noisyPaddedPlane(32, 32, MinInterpApron, 1)
	b := noisyPaddedPlane(32, 32, MinInterpApron, 2)
	ip := Interpolate(a)
	ip.Block(make([]uint8, 64), 9, 9, 8, 8)
	ip.Release()
	ip = Interpolate(b)
	want := refInterpolate(b)
	for _, pos := range [][2]int{{9, 9}, {1, 0}, {0, 1}, {31, 31}} {
		if got := sample(ip, pos[0], pos[1]); got != want.atClamped(pos[0], pos[1]) {
			t.Fatalf("recycled view sample (%d,%d) = %d, want %d (stale source?)",
				pos[0], pos[1], got, want.atClamped(pos[0], pos[1]))
		}
	}
	ip.Release()
}

// TestConcurrentFirstTouch predicts blocks of one fresh view from many
// goroutines at once — the wavefront pattern. Block writes nothing but
// its destination and the global counters, so under -race this certifies
// that it stays a pure read of the view.
func TestConcurrentFirstTouch(t *testing.T) {
	src := noisyPaddedPlane(64, 48, MinInterpApron, 7)
	want := refInterpolate(src)
	for round := 0; round < 4; round++ {
		ip := Interpolate(src)
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				blk := make([]uint8, 16*16)
				for i := 0; i < 2*64*2*48/64; i++ {
					hx := (i*31 + w*17) % (2*64 - 32)
					hy := (i*13 + w*7) % (2*48 - 32)
					ip.Block(blk, hx, hy, 16, 16)
					for y := 0; y < 16; y += 5 {
						for x := 0; x < 16; x += 5 {
							if blk[y*16+x] != want.atClamped(hx+2*x, hy+2*y) {
								errs <- "value mismatch under concurrent prediction"
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

// TestInterpFillStatsAdvance checks the prediction counters: a half-pel
// block counts itself and its samples, a full-pel block is a copy and
// counts nothing. Other tests may predict concurrently, so the deltas are
// lower bounds.
func TestInterpFillStatsAdvance(t *testing.T) {
	src := noisyPaddedPlane(64, 64, MinInterpApron, 11)
	ip := Interpolate(src)
	defer ip.Release()
	b0, s0 := InterpFillStats()
	ip.Block(make([]uint8, 64), 33, 33, 8, 8) // one diagonal-phase block
	b1, s1 := InterpFillStats()
	if b1-b0 < 1 || s1-s0 < 64 {
		t.Fatalf("one 8x8 half-pel block advanced the counters by %d blocks, %d samples", b1-b0, s1-s0)
	}
}

// FuzzHalfPelBlock compares Block with the per-sample oracle for
// arbitrary anchors — interior, in the apron and far out of range, as a
// corrupt stream's motion vectors can place them — on tight, strided and
// padded planes of any size and block shape.
func FuzzHalfPelBlock(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(16), uint8(MinInterpApron), uint8(0), 9, 9, uint8(8), uint8(8))
	f.Add(int64(2), uint8(33), uint8(17), uint8(0), uint8(5), -3, 31, uint8(16), uint8(16))
	f.Add(int64(3), uint8(8), uint8(8), uint8(2), uint8(0), -2*HalfPelApron-1, 2*8+3, uint8(8), uint8(8))
	f.Add(int64(4), uint8(5), uint8(3), uint8(0), uint8(1), 1<<30, -1<<30, uint8(3), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, w8, h8, apron8, pad8 uint8, hx, hy int, bw8, bh8 uint8) {
		w, h := 1+int(w8)%48, 1+int(h8)%48
		bw, bh := 1+int(bw8)%16, 1+int(bh8)%16
		hx = max(min(hx, 1<<30), -1<<30) // keep hx+2*bw clear of overflow
		hy = max(min(hy, 1<<30), -1<<30)
		var src *Plane
		if apron := int(apron8) % 6; apron > 0 {
			src = noisyPaddedPlane(w, h, apron, seed)
		} else {
			pad := int(pad8) % 9
			rng := newTestRNG(seed)
			src = &Plane{W: w, H: h, Stride: w + pad, Pix: make([]uint8, (w+pad)*h)}
			for i := range src.Pix {
				src.Pix[i] = uint8(rng.next())
			}
		}
		ip := Interpolate(src)
		defer ip.Release()
		blk := make([]uint8, bw*bh)
		ip.Block(blk, hx, hy, bw, bh)
		for y := 0; y < bh; y++ {
			for x := 0; x < bw; x++ {
				if want := halfPelAt(src, hx+2*x, hy+2*y); blk[y*bw+x] != want {
					t.Fatalf("%dx%d apron %d: Block %dx%d at (%d,%d) sample (%d,%d) = %d, want %d",
						w, h, src.apron, bw, bh, hx, hy, x, y, blk[y*bw+x], want)
				}
			}
		}
	})
}
