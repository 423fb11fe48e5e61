package search

import "repro/internal/mvfield"

// Diamond is the diamond search (DS) algorithm: a large diamond search
// pattern (LDSP) iterated until the centre wins, then one small diamond
// (SDSP) pass. A classical unrestricted-centre-biased baseline.
type Diamond struct {
	NoHalfPel bool
	// MaxIter bounds LDSP iterations (default: enough to cross Range).
	MaxIter int
}

// Name implements Searcher.
func (d *Diamond) Name() string { return "DS" }

var ldsp = [8]mvfield.MV{
	{X: 0, Y: -4}, {X: 2, Y: -2}, {X: 4, Y: 0}, {X: 2, Y: 2},
	{X: 0, Y: 4}, {X: -2, Y: 2}, {X: -4, Y: 0}, {X: -2, Y: -2},
}

var sdsp = [4]mvfield.MV{
	{X: 0, Y: -2}, {X: 2, Y: 0}, {X: 0, Y: 2}, {X: -2, Y: 0},
}

// Search implements Searcher.
func (d *Diamond) Search(in *Input) Result {
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

	maxIter := d.MaxIter
	if maxIter <= 0 {
		maxIter = in.Range // each LDSP step moves ≥1 pel toward the target
	}
	for iter := 0; iter < maxIter; iter++ {
		center := best
		for _, off := range ldsp {
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
	if !d.NoHalfPel {
		mv, sad, extra := refineHalfPel(in, best, bestSAD)
		best, bestSAD, pts = mv, sad, pts+extra
	}
	return Result{MV: best, SAD: bestSAD, Points: pts, Evaluated: pts}
}
