package search

import "repro/internal/mvfield"

// PBM is the predictive block matching algorithm of §2.2, following the
// complexity-bounded scheme of Chimienti et al. the paper uses [9]:
//
//  1. evaluate the spatio-temporal predictor candidates (Fig. 2),
//  2. keep the candidate with the lowest SAD,
//  3. refine: a bounded integer-pel gradient descent followed by the
//     half-pel refinement step.
//
// The refinement budget bounds the worst-case complexity; the default
// matches the "very low computational cost" regime of the paper
// (a few tens of candidates per macroblock versus FSBM's 969).
type PBM struct {
	// MaxRefineSteps bounds the integer-pel descent (default 4).
	MaxRefineSteps int
	// NoHalfPel disables the final half-pel refinement.
	NoHalfPel bool
}

// DefaultRefineSteps is the integer refinement budget used in the paper's
// operating point.
const DefaultRefineSteps = 4

// Name implements Searcher.
func (p *PBM) Name() string { return "PBM" }

func (p *PBM) refineSteps() int {
	if p.MaxRefineSteps > 0 {
		return p.MaxRefineSteps
	}
	return DefaultRefineSteps
}

// Search implements Searcher. It requires CurField (and uses PrevField
// when present) to gather predictors; with no context it degrades to a
// small search around the zero vector.
//
// The probe set is tiny (a handful of predictors plus the bounded
// descent), so visited candidates are deduplicated with a linear scan
// over a stack-allocated list instead of a map, and losing candidates are
// evaluated with the early-terminating capped SAD — the winner and its
// exact SAD (and therefore the bitstream) are unchanged: a capped probe
// is only ever truncated when it already exceeds the incumbent, and a
// probe that ties the incumbent is returned exactly (no prefix of its
// rows can exceed the cap).
func (p *PBM) Search(in *Input) Result {
	var visited visitedSet
	pts := 0
	eval := func(mv mvfield.MV, cap int) (int, bool) {
		if !in.Legal(mv) || visited.seen(mv) {
			return 0, false
		}
		visited.add(mv)
		pts++
		if cap < 0 {
			return in.SAD(mv), true
		}
		return in.SADCapped(mv, cap), true
	}

	// Step 1: predictor candidates. Predictors are full-pel rounded: the
	// integer search stage operates on the full-pel grid only.
	var cbuf [14]mvfield.MV
	cands := cbuf[:0]
	if in.CurField != nil {
		cands = in.CurField.AppendCandidates(cands, in.PrevField, in.MBX, in.MBY)
	} else {
		cands = append(cands, mvfield.Zero)
	}
	best, bestSAD := mvfield.Zero, -1
	for _, c := range cands {
		c = in.ClampMV(c)
		c = mvfield.FromFullPel(c.X/2, c.Y/2) // snap to integer pel
		s, ok := eval(c, bestSAD)
		if !ok {
			continue
		}
		if bestSAD < 0 || better(s, c, bestSAD, best) {
			best, bestSAD = c, s
		}
	}
	if bestSAD < 0 {
		// All predictors were illegal/duplicates of illegal positions:
		// fall back to the zero vector.
		best = mvfield.Zero
		bestSAD = in.SAD(best)
		pts++
	}

	// Step 2/3: bounded small-diamond descent on the integer grid.
	for step := 0; step < p.refineSteps(); step++ {
		improved := false
		for _, d := range [4]mvfield.MV{{X: 2}, {X: -2}, {Y: 2}, {Y: -2}} {
			mv := best.Add(d)
			if mv.Linf() > 2*in.Range {
				continue
			}
			s, ok := eval(mv, bestSAD)
			if ok && better(s, mv, bestSAD, best) {
				best, bestSAD, improved = mv, s, true
			}
		}
		if !improved {
			break
		}
	}

	// Final half-pel refinement.
	if !p.NoHalfPel {
		mv, sad, extra := refineHalfPel(in, best, bestSAD)
		best, bestSAD, pts = mv, sad, pts+extra
	}
	return Result{MV: best, SAD: bestSAD, Points: pts, Evaluated: pts}
}
