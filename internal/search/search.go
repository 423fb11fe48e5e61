// Package search implements block-matching motion search algorithms over
// the frame substrate: the exhaustive FSBM and predictive PBM algorithms
// the paper builds on, the shared half-pel refinement step, and classical
// fast-search baselines (TSS, 4SS, diamond, cross-diamond) referenced in
// the paper's related work.
//
// Every searcher reports the number of candidate positions it considered
// — the computational-complexity metric of the paper's Table 1 — and how
// many of them it actually scored (Result.Evaluated).
package search

import (
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
)

// Input describes one block-matching problem: find the motion vector for
// the W×H block of Cur anchored at (BX, BY), matching into Ref, within
// ±Range full pels.
type Input struct {
	Cur *frame.Plane
	Ref *frame.Plane
	// RefI, when non-nil, is the reference view of Ref (RefI.Src() ==
	// Ref). FSBM reads its lazily filled row-sum phase to prune the full
	// search by the successive-elimination bound; without it the search
	// evaluates every candidate, with the same result. No searcher reads
	// its half-pel phases: half-pel candidates are evaluated by kernels
	// that fuse the H.263 bilinear interpolation into the SAD directly
	// against Ref (bit-identical values).
	RefI *frame.Interpolated

	BX, BY int // block anchor in pels
	W, H   int // block size (16×16 for macroblocks)
	Range  int // p: maximum displacement in full pels

	Qp int // quantiser, used by rate-aware searchers and ACBM

	// Predictive context: the motion fields of the current (partially
	// computed) and previous frame, and this block's field coordinates.
	CurField, PrevField *mvfield.Field
	MBX, MBY            int

	// Collect, when non-nil, accumulates the SAD of every evaluated
	// candidate for the SAD_deviation statistic of the Fig. 4 study.
	Collect *metrics.Deviation

	// PixelDecimation, when true, evaluates candidates on a 4:1
	// subsampled pixel grid (scaled ×4 to keep SAD magnitudes
	// comparable) — the orthogonal fast-ME strategy of the papers the
	// introduction cites as [6–8]. It composes with any search pattern.
	PixelDecimation bool
}

// Result is the outcome of one block search.
type Result struct {
	MV     mvfield.MV // best motion vector, half-pel units
	SAD    int        // its matching error
	Points int        // candidate positions considered (Table 1 metric)
	// Evaluated counts the candidates whose SAD kernel actually ran.
	// It equals Points except where a search prunes candidates that
	// provably cannot win (FSBM's successive-elimination bound).
	Evaluated int
}

// Searcher is a block-matching motion estimation algorithm.
type Searcher interface {
	// Name identifies the algorithm in tables and plots.
	Name() string
	// Search solves one block-matching problem.
	Search(in *Input) Result
}

// Legal reports whether candidate mv (half-pel units) keeps the whole
// prediction block inside the reference frame's half-pel grid.
func (in *Input) Legal(mv mvfield.MV) bool {
	hx := 2*in.BX + mv.X
	hy := 2*in.BY + mv.Y
	return hx >= 0 && hy >= 0 &&
		hx+2*(in.W-1) <= 2*(in.Ref.W-1) &&
		hy+2*(in.H-1) <= 2*(in.Ref.H-1)
}

// ClampMV limits mv to the search range and to legal positions, moving it
// the minimum distance needed. Used to sanitise predictors that point
// outside the window.
func (in *Input) ClampMV(mv mvfield.MV) mvfield.MV {
	lim := 2 * in.Range
	mv = mv.Clamp(lim)
	c := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	mv.X = c(mv.X, -2*in.BX, 2*(in.Ref.W-in.W-in.BX)+1)
	mv.Y = c(mv.Y, -2*in.BY, 2*(in.Ref.H-in.H-in.BY)+1)
	return mv
}

// SAD evaluates candidate mv. Integer candidates read the reference plane
// directly; half-pel candidates fuse the interpolation into the kernel,
// reading the same plane. The candidate must be Legal.
func (in *Input) SAD(mv mvfield.MV) int {
	var s int
	switch {
	case in.PixelDecimation && mv.IsFullPel():
		fx, fy := mv.FullPel()
		s = metrics.SADDecimated(in.Cur, in.BX, in.BY, in.Ref, in.BX+fx, in.BY+fy, in.W, in.H)
	case in.PixelDecimation:
		s = metrics.SADHalfPelPlaneDecimated(in.Cur, in.BX, in.BY, in.Ref, 2*in.BX+mv.X, 2*in.BY+mv.Y, in.W, in.H)
	case mv.IsFullPel():
		fx, fy := mv.FullPel()
		s = metrics.SAD(in.Cur, in.BX, in.BY, in.Ref, in.BX+fx, in.BY+fy, in.W, in.H)
	default:
		s = metrics.SADHalfPelPlane(in.Cur, in.BX, in.BY, in.Ref, 2*in.BX+mv.X, 2*in.BY+mv.Y, in.W, in.H)
	}
	if in.Collect != nil {
		in.Collect.Add(s)
	}
	return s
}

// SADCapped is SAD with early termination; the returned value is only
// exact when ≤ cap. Half-pel candidates run the capped fused kernels.
// Collect still records the exact SAD when enabled (the Fig. 4 study
// needs unbiased deviations).
func (in *Input) SADCapped(mv mvfield.MV, cap int) int {
	if in.Collect != nil || in.PixelDecimation || cap < 0 {
		return in.SAD(mv)
	}
	if mv.IsFullPel() {
		fx, fy := mv.FullPel()
		return metrics.SADCapped(in.Cur, in.BX, in.BY, in.Ref, in.BX+fx, in.BY+fy, in.W, in.H, cap)
	}
	return metrics.SADHalfPelPlaneCapped(in.Cur, in.BX, in.BY, in.Ref, 2*in.BX+mv.X, 2*in.BY+mv.Y, in.W, in.H, cap)
}

// visitedSet deduplicates the small candidate sets of the predictive
// searchers. The probe budget is a few dozen positions, so a linear scan
// over a stack-allocated array beats a per-block map allocation; an
// overflow map keeps the semantics exact for oversized refinement budgets.
type visitedSet struct {
	n    int
	mvs  [48]mvfield.MV
	over map[mvfield.MV]bool
}

func (v *visitedSet) seen(mv mvfield.MV) bool {
	for i := 0; i < v.n; i++ {
		if v.mvs[i] == mv {
			return true
		}
	}
	return v.over != nil && v.over[mv]
}

func (v *visitedSet) add(mv mvfield.MV) {
	if v.n < len(v.mvs) {
		v.mvs[v.n] = mv
		v.n++
		return
	}
	if v.over == nil {
		v.over = make(map[mvfield.MV]bool, 16)
	}
	v.over[mv] = true
}

// better reports whether (sad, mv) improves on (bestSAD, bestMV), breaking
// SAD ties toward the shorter vector so all searchers prefer coherent,
// cheap-to-code motion.
func better(sad int, mv mvfield.MV, bestSAD int, bestMV mvfield.MV) bool {
	if sad != bestSAD {
		return sad < bestSAD
	}
	return mv.L1() < bestMV.L1()
}

// refineHalfPel evaluates the 8 half-pel neighbours of center and returns
// the best position along with the number of candidates evaluated. This is
// the refinement step shared by every integer-precision searcher (H.263
// half-pel motion). Probes run the capped fused kernels: a losing
// neighbour aborts within a few rows, and the returned bestSAD is always
// exact (truncation only happens above the incumbent; ties fold to the
// exact value).
func refineHalfPel(in *Input, center mvfield.MV, centerSAD int) (mvfield.MV, int, int) {
	best, bestSAD, pts := center, centerSAD, 0
	// Interior blocks (the vast majority) evaluate the whole ring with one
	// fused pass that shares the current block and reference rows across
	// all eight probes; the selection below replays the same scan order and
	// tie-breaks as the per-probe loop, so the outcome is identical.
	if center.IsFullPel() && in.Collect == nil && !in.PixelDecimation &&
		in.W%8 == 0 && in.W*in.H <= 256 &&
		in.Legal(center.Add(mvfield.MV{X: -1, Y: -1})) &&
		in.Legal(center.Add(mvfield.MV{X: 1, Y: 1})) {
		fx, fy := center.FullPel()
		var ring [9]int
		metrics.SADHalfPelRing(in.Cur, in.BX, in.BY, in.Ref, in.BX+fx, in.BY+fy, in.W, in.H, &ring)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				mv := center.Add(mvfield.MV{X: dx, Y: dy})
				pts++
				if s := ring[(dy+1)*3+dx+1]; better(s, mv, bestSAD, best) {
					best, bestSAD = mv, s
				}
			}
		}
		return best, bestSAD, pts
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			mv := center.Add(mvfield.MV{X: dx, Y: dy})
			if !in.Legal(mv) {
				continue
			}
			pts++
			if s := in.SADCapped(mv, bestSAD); better(s, mv, bestSAD, best) {
				best, bestSAD = mv, s
			}
		}
	}
	return best, bestSAD, pts
}
