package search

import (
	"repro/internal/entropy"
	"repro/internal/metrics"
	"repro/internal/mvfield"
)

// RCFSBM is a rate-constrained full search: it minimises the Lagrangian
// cost of §2.1 of the paper,
//
//	J(mv) = SAD(mv) + λ·R(mv)
//
// where R is the bit cost of coding mv differentially against the median
// predictor and λ is proportional to the quantiser (metrics.LambdaSAD).
// Compared to plain FSBM it trades a little matching error for a much
// more coherent, cheaper-to-code motion field — the deficiency of plain
// FSBM that §2.3 describes.
type RCFSBM struct {
	NoHalfPel bool
}

// Name implements Searcher.
func (f *RCFSBM) Name() string { return "RC-FSBM" }

// cost returns J for a candidate.
func (in *Input) cost(sad int, mv mvfield.MV, pred mvfield.MV) int {
	return metrics.RDCost(sad, entropy.MVDBits(mv, pred), in.Qp)
}

// Search implements Searcher.
func (f *RCFSBM) Search(in *Input) Result {
	pred := mvfield.Zero
	if in.CurField != nil {
		pred = in.CurField.MedianPredictor(in.MBX, in.MBY)
	}
	best := mvfield.Zero
	bestSAD, bestCost := -1, 0
	pts := 0
	for v := -in.Range; v <= in.Range; v++ {
		for u := -in.Range; u <= in.Range; u++ {
			mv := mvfield.FromFullPel(u, v)
			if !in.Legal(mv) {
				continue
			}
			pts++
			sad := in.SAD(mv)
			j := in.cost(sad, mv, pred)
			if bestSAD < 0 || j < bestCost || (j == bestCost && mv.L1() < best.L1()) {
				best, bestSAD, bestCost = mv, sad, j
			}
		}
	}
	if bestSAD < 0 {
		sad := in.SAD(mvfield.Zero)
		return Result{MV: mvfield.Zero, SAD: sad, Points: 1, Evaluated: 1}
	}
	if !f.NoHalfPel {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				mv := best.Add(mvfield.MV{X: dx, Y: dy})
				if !in.Legal(mv) {
					continue
				}
				pts++
				sad := in.SAD(mv)
				j := in.cost(sad, mv, pred)
				if j < bestCost || (j == bestCost && mv.L1() < best.L1()) {
					best, bestSAD, bestCost = mv, sad, j
				}
			}
		}
	}
	return Result{MV: best, SAD: bestSAD, Points: pts, Evaluated: pts}
}
