package search

import "repro/internal/mvfield"

// TSS is the three-step search of Liu, Zeng and Liou [3]: a logarithmic
// coarse-to-fine pattern search evaluating the centre and its 8 neighbours
// at halving step sizes. Included as a classical fast-search baseline.
type TSS struct {
	NoHalfPel bool
}

// Name implements Searcher.
func (t *TSS) Name() string { return "TSS" }

// Search implements Searcher.
func (t *TSS) Search(in *Input) Result {
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

	// Initial step: the largest power of two ≤ max(Range/2, 1).
	step := 1
	for 2*step <= (in.Range+1)/2 {
		step *= 2
	}
	best := mvfield.Zero
	bestSAD := in.SAD(best)
	visited.add(best)
	pts++
	for step >= 1 {
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
				if s, ok := eval(mv); ok && better(s, mv, bestSAD, best) {
					best, bestSAD = mv, s
				}
			}
		}
		step /= 2
	}
	if !t.NoHalfPel {
		mv, sad, extra := refineHalfPel(in, best, bestSAD)
		best, bestSAD, pts = mv, sad, pts+extra
	}
	return Result{MV: best, SAD: bestSAD, Points: pts, Evaluated: pts}
}
