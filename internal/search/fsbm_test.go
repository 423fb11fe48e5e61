package search

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
)

// maxSearchRange mirrors codec.MaxSearchRange, the largest range the CLI
// and /encode accept (codec imports this package, so it cannot be named).
const maxSearchRange = 64

// perCandidateFSBM is the full search as it ran before the batched scan:
// the spiral walked one candidate at a time, each checked with Legal and
// scored through Input.SADCapped with better()'s tie-break. It is the
// oracle the batched, bound-pruned scan must match exactly.
func perCandidateFSBM(in *Input) Result {
	best := mvfield.Zero
	bestSAD := -1
	pts := 0
	for _, mv := range spiralOffsets(in.Range) {
		if !in.Legal(mv) {
			continue
		}
		pts++
		if bestSAD < 0 {
			best, bestSAD = mv, in.SAD(mv)
			continue
		}
		if s := in.SADCapped(mv, bestSAD); better(s, mv, bestSAD, best) {
			best, bestSAD = mv, s
		}
	}
	if bestSAD < 0 {
		return Result{MV: mvfield.Zero, SAD: in.SAD(mvfield.Zero), Points: 1}
	}
	mv, sad, extra := refineHalfPel(in, best, bestSAD)
	return Result{MV: mv, SAD: sad, Points: pts + extra}
}

// framePair returns a padded reference of the given size with smooth
// structure (so the bound is tight enough to prune) and a current frame
// that is the reference moved by a few pels plus noise, as codec planes
// are laid out: padded rows, so the stride exceeds the width.
func framePair(w, h int, seed int64) (cur, ref *frame.Plane) {
	rng := rand.New(rand.NewSource(seed))
	ref = frame.NewPlanePadded(w, h, 16)
	cur = frame.NewPlanePadded(w, h, 16)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 128 + (x*x/7+y*y/5+x*y/3)%96 - 48 + rng.Intn(9)
			ref.Set(x, y, frame.ClampU8(v))
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cur.Set(x, y, frame.ClampU8(int(ref.AtClamped(x+3, y-2))+rng.Intn(7)-3))
		}
	}
	return cur, ref
}

// borderAnchors lists the nine anchor classes of a w×h block in a
// W×H plane — the four corners, the four edges and the interior — plus
// positions one pel inside the left/top borders, so every way the window
// can be clipped is exercised.
func borderAnchors(W, H, w, h int) [][2]int {
	xs := []int{0, 1, W/2 - w/2, W - w - 1, W - w}
	ys := []int{0, 1, H/2 - h/2, H - h - 1, H - h}
	var out [][2]int
	for _, y := range ys {
		for _, x := range xs {
			out = append(out, [2]int{x, y})
		}
	}
	return out
}

// TestFSBMPrunedScanMatchesPerCandidateLoop pins the batched scan to the
// per-candidate loop: the same winner, SAD and Points for every range
// 1..maxSearchRange, every border anchor, the 16×16, 8×8 and 16×8 block
// shapes, and CIF and 4CIF strides. Evaluated never exceeds Points, and
// the pruning actually fires. PixelDecimation runs the unpruned scan and
// must match as well.
func TestFSBMPrunedScanMatchesPerCandidateLoop(t *testing.T) {
	for _, sz := range []frame.Size{frame.CIF, frame.Size{W: 704, H: 576}} {
		cur, ref := framePair(sz.W, sz.H, int64(sz.W))
		refI := frame.InterpolateLazy(ref)
		pruned := 0
		for _, blk := range [][2]int{{16, 16}, {8, 8}, {16, 8}} {
			w, h := blk[0], blk[1]
			anchors := borderAnchors(sz.W, sz.H, w, h)
			// Ranges up to 16 meet every anchor; beyond, each range takes
			// every stride-th anchor, cycling so all of them recur.
			stride := 5
			if raceEnabled {
				stride = len(anchors)
			}
			for r := 1; r <= maxSearchRange; r++ {
				for i, a := range anchors {
					if r > 16 && i%stride != r%stride {
						continue
					}
					in := &Input{Cur: cur, Ref: ref, RefI: refI, BX: a[0], BY: a[1], W: w, H: h, Range: r}
					for _, pd := range []bool{false, true} {
						in.PixelDecimation = pd
						name := fmt.Sprintf("%dx%d %dx%d r=%d at %v decimated=%v", sz.W, sz.H, w, h, r, a, pd)
						got := (&FSBM{}).Search(in)
						want := perCandidateFSBM(in)
						if got.MV != want.MV || got.SAD != want.SAD || got.Points != want.Points {
							t.Fatalf("%s: batched %+v, per-candidate %+v", name, got, want)
						}
						if got.Evaluated < 1 || got.Evaluated > got.Points || (pd && got.Evaluated != got.Points) {
							t.Fatalf("%s: evaluated %d of %d points", name, got.Evaluated, got.Points)
						}
						if got.Evaluated < got.Points {
							pruned++
						}
					}
				}
			}
		}
		refI.Release()
		if pruned == 0 {
			t.Fatalf("%dx%d: the bound never pruned a candidate", sz.W, sz.H)
		}
	}
}

// TestFSBMWithoutRowSumsMatches covers the unpruned batched scan: a search
// input without a reference view scores every candidate and still finds
// the per-candidate loop's winner.
func TestFSBMWithoutRowSumsMatches(t *testing.T) {
	cur, ref := framePair(96, 80, 5)
	for _, a := range borderAnchors(96, 80, 16, 16) {
		in := &Input{Cur: cur, Ref: ref, BX: a[0], BY: a[1], W: 16, H: 16, Range: 15}
		got, want := (&FSBM{}).Search(in), perCandidateFSBM(in)
		if got.MV != want.MV || got.SAD != want.SAD || got.Points != want.Points || got.Evaluated != got.Points {
			t.Fatalf("anchor %v: batched %+v, per-candidate %+v", a, got, want)
		}
	}
}

// TestFSBMCollectPrunesNothing: the Fig. 4 study needs the SAD of every
// candidate, so with Collect set the search records exactly Points values
// and evaluates every one of them.
func TestFSBMCollectPrunesNothing(t *testing.T) {
	cur, ref := framePair(96, 80, 9)
	for _, a := range borderAnchors(96, 80, 16, 16) {
		var dev metrics.Deviation
		in := &Input{Cur: cur, Ref: ref, RefI: frame.Interpolate(ref), BX: a[0], BY: a[1], W: 16, H: 16, Range: 15, Collect: &dev}
		got := (&FSBM{}).Search(in)
		if dev.N() != got.Points || got.Evaluated != got.Points {
			t.Fatalf("anchor %v: collected %d SADs, evaluated %d, Points %d", a, dev.N(), got.Evaluated, got.Points)
		}
		in.Collect = nil
		if want := perCandidateFSBM(in); got.MV != want.MV || got.SAD != want.SAD || got.Points != want.Points {
			t.Fatalf("anchor %v: collecting search %+v, per-candidate %+v", a, got, want)
		}
	}
}

// TestFSBMSearchDoesNotAllocate guards the per-macroblock path: the bound
// grid comes from a pool and the candidate order from a cache, so a warm
// full search allocates nothing.
func TestFSBMSearchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	cur, ref := framePair(352, 288, 3)
	refI := frame.InterpolateLazy(ref)
	defer refI.Release()
	in := &Input{Cur: cur, Ref: ref, RefI: refI, BX: 160, BY: 128, W: 16, H: 16, Range: 15}
	f := &FSBM{}
	f.Search(in)
	if n := testing.AllocsPerRun(20, func() { f.Search(in) }); n != 0 {
		t.Fatalf("FSBM.Search allocates %.1f objects per call", n)
	}
}
