package search

import "repro/internal/mvfield"

// CrossDiamond is the cross-diamond search of Cheung and Po [5]: a
// cross-shaped pattern exploits the centre-biased, axis-aligned motion of
// real sequences before switching to diamond refinement. Included as a
// classical fast-search baseline.
type CrossDiamond struct {
	NoHalfPel bool
	MaxIter   int
}

// Name implements Searcher.
func (c *CrossDiamond) Name() string { return "CDS" }

var crossLarge = [8]mvfield.MV{
	{X: 0, Y: -4}, {X: 0, Y: -2}, {X: 0, Y: 2}, {X: 0, Y: 4},
	{X: -4, Y: 0}, {X: -2, Y: 0}, {X: 2, Y: 0}, {X: 4, Y: 0},
}

// Search implements Searcher.
func (c *CrossDiamond) Search(in *Input) Result {
	var visited visitedSet
	pts := 0
	eval := func(mv mvfield.MV) (int, bool) {
		if !in.Legal(mv) || visited.seen(mv) {
			return 0, false
		}
		visited.add(mv)
		pts++
		return in.SAD(mv), true
	}
	best := mvfield.Zero
	bestSAD := in.SAD(best)
	visited.add(best)
	pts++

	// Phase 1: large cross. If the centre survives, finish with the small
	// diamond immediately (first-step stop for stationary blocks).
	center := best
	for _, off := range crossLarge {
		mv := center.Add(off)
		if mv.Linf() > 2*in.Range {
			continue
		}
		if s, ok := eval(mv); ok && better(s, mv, bestSAD, best) {
			best, bestSAD = mv, s
		}
	}
	if best != center {
		// Phase 2: diamond iterations as in DS.
		maxIter := c.MaxIter
		if maxIter <= 0 {
			maxIter = in.Range
		}
		for iter := 0; iter < maxIter; iter++ {
			ctr := best
			for _, off := range ldsp {
				mv := ctr.Add(off)
				if mv.Linf() > 2*in.Range {
					continue
				}
				if s, ok := eval(mv); ok && better(s, mv, bestSAD, best) {
					best, bestSAD = mv, s
				}
			}
			if best == ctr {
				break
			}
		}
	}
	// Final small diamond.
	for _, off := range sdsp {
		mv := best.Add(off)
		if mv.Linf() > 2*in.Range {
			continue
		}
		if s, ok := eval(mv); ok && better(s, mv, bestSAD, best) {
			best, bestSAD = mv, s
		}
	}
	if !c.NoHalfPel {
		mv, sad, extra := refineHalfPel(in, best, bestSAD)
		best, bestSAD, pts = mv, sad, pts+extra
	}
	return Result{MV: best, SAD: bestSAD, Points: pts, Evaluated: pts}
}
