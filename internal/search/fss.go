package search

import "repro/internal/mvfield"

// FSS is the four-step search of Po and Ma [4]: a 5×5 window pattern that
// shrinks to 3×3 for the final step, biased toward the centre. Included
// as a classical fast-search baseline.
type FSS struct {
	NoHalfPel bool
}

// Name implements Searcher.
func (f *FSS) Name() string { return "4SS" }

// Search implements Searcher.
func (f *FSS) Search(in *Input) Result {
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

	// Steps 1-3: 5×5 pattern (step 2 pels). If the best stays at the
	// centre the pattern shrinks immediately; the pattern re-centres on
	// the best point otherwise. Step 4: 3×3 pattern (step 1 pel).
	step := 2
	for s := 0; s < 4; s++ {
		if s == 3 {
			step = 1
		}
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
		if best == center && s < 3 {
			// Centre is best: skip directly to the final small step.
			s = 2
		}
	}
	if !f.NoHalfPel {
		mv, sad, extra := refineHalfPel(in, best, bestSAD)
		best, bestSAD, pts = mv, sad, pts+extra
	}
	return Result{MV: best, SAD: bestSAD, Points: pts, Evaluated: pts}
}
