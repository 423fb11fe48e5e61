package search

import "repro/internal/mvfield"

// NTSS is the new three-step search (Li, Zeng, Liou 1994): TSS augmented
// with a centre-biased first step that also checks the 8 unit neighbours,
// and a halfway-stop for quasi-stationary blocks. Included as a classical
// baseline alongside TSS.
type NTSS struct {
	NoHalfPel bool
}

// Name implements Searcher.
func (n *NTSS) Name() string { return "NTSS" }

// Search implements Searcher.
func (n *NTSS) Search(in *Input) Result {
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
	finish := func(best mvfield.MV, bestSAD int) Result {
		if !n.NoHalfPel {
			mv, sad, extra := refineHalfPel(in, best, bestSAD)
			best, bestSAD, pts = mv, sad, pts+extra
		}
		return Result{MV: best, SAD: bestSAD, Points: pts, Evaluated: pts}
	}

	step := 1
	for 2*step <= (in.Range+1)/2 {
		step *= 2
	}
	best := mvfield.Zero
	bestSAD := in.SAD(best)
	visited.add(best)
	pts++

	// First step: the usual ±step ring plus the ±1 unit ring.
	bestUnit, unitWins := mvfield.Zero, false
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			for _, s := range [2]int{1, step} {
				mv := mvfield.FromFullPel(dx*s, dy*s)
				if mv.Linf() > 2*in.Range {
					continue
				}
				if sv, ok := eval(mv); ok && better(sv, mv, bestSAD, best) {
					best, bestSAD = mv, sv
					unitWins = s == 1
					if unitWins {
						bestUnit = mv
					}
				}
			}
		}
	}
	if best == mvfield.Zero {
		// First-step stop: the centre won outright.
		return finish(best, bestSAD)
	}
	if unitWins {
		// Halfway stop: refine only the 8 neighbours of the winning unit
		// point, then stop.
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				mv := bestUnit.Add(mvfield.FromFullPel(dx, dy))
				if mv.Linf() > 2*in.Range {
					continue
				}
				if sv, ok := eval(mv); ok && better(sv, mv, bestSAD, best) {
					best, bestSAD = mv, sv
				}
			}
		}
		return finish(best, bestSAD)
	}
	// Otherwise continue as TSS with halving steps.
	for step /= 2; step >= 1; step /= 2 {
		center := best
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				mv := center.Add(mvfield.FromFullPel(dx*step, dy*step))
				if mv.Linf() > 2*in.Range {
					continue
				}
				if sv, ok := eval(mv); ok && better(sv, mv, bestSAD, best) {
					best, bestSAD = mv, sv
				}
			}
		}
	}
	return finish(best, bestSAD)
}

// HEXBS is the hexagon-based search (Zhu, Lin, Chau 2002): large-hexagon
// gradient descent followed by a small cross refinement; typically fewer
// points than diamond search for the same quality.
type HEXBS struct {
	NoHalfPel bool
	MaxIter   int
}

// Name implements Searcher.
func (h *HEXBS) Name() string { return "HEXBS" }

var hexLarge = [6]mvfield.MV{
	{X: 4, Y: 0}, {X: 2, Y: -4}, {X: -2, Y: -4},
	{X: -4, Y: 0}, {X: -2, Y: 4}, {X: 2, Y: 4},
}

// Search implements Searcher.
func (h *HEXBS) Search(in *Input) Result {
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

	maxIter := h.MaxIter
	if maxIter <= 0 {
		maxIter = in.Range
	}
	for iter := 0; iter < maxIter; iter++ {
		center := best
		for _, off := range hexLarge {
			mv := center.Add(off)
			if mv.Linf() > 2*in.Range {
				continue
			}
			if s, ok := eval(mv); ok && better(s, mv, bestSAD, best) {
				best, bestSAD = mv, s
			}
		}
		if best == center {
			break
		}
	}
	for _, off := range sdsp {
		mv := best.Add(off)
		if mv.Linf() > 2*in.Range {
			continue
		}
		if s, ok := eval(mv); ok && better(s, mv, bestSAD, best) {
			best, bestSAD = mv, s
		}
	}
	if !h.NoHalfPel {
		mv, sad, extra := refineHalfPel(in, best, bestSAD)
		best, bestSAD, pts = mv, sad, pts+extra
	}
	return Result{MV: best, SAD: bestSAD, Points: pts, Evaluated: pts}
}
