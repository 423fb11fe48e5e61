// Package core implements the paper's primary contribution: the Adaptive
// Cost Block Matching (ACBM) motion estimation algorithm (§3).
//
// ACBM always runs the cheap predictive search (PBM) and escalates to full
// search (FSBM) only on blocks classified as critical. A block avoids full
// search when either
//
//	condition 1:  Intra_SAD + SAD_PBM < α + β·Qp²
//
// (the block is smooth and predictively matched well enough for the
// current quantiser — any extra matching gain would be quantised away), or
//
//	condition 2:  SAD_PBM < γ·Intra_SAD
//
// (the block is textured but the predictive match is already near-minimal,
// because a matching error well below the block's own internal variation
// cannot be improved much). Otherwise the block is critical and FSBM runs.
//
// α, β and γ are the paper's quality/cost knobs; the defaults below are
// the values the paper calibrates for FSBM-equivalent quality
// (α=1000, β=8, γ=1/4).
package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/search"
)

// Params are the ACBM threshold parameters.
type Params struct {
	Alpha int // additive quality threshold (α)
	Beta  int // quantiser-dependent threshold weight (β, multiplies Qp²)
	// GammaNum/GammaDen form the texture-relative threshold γ as a
	// rational so the decision stays in integer arithmetic (¼ by default).
	GammaNum, GammaDen int
}

// DefaultParams are the paper's calibrated values: α=1000, β=8, γ=1/4.
var DefaultParams = Params{Alpha: 1000, Beta: 8, GammaNum: 1, GammaDen: 4}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.GammaDen <= 0 {
		return fmt.Errorf("core: GammaDen must be positive, got %d", p.GammaDen)
	}
	if p.Alpha < 0 || p.Beta < 0 || p.GammaNum < 0 {
		return fmt.Errorf("core: negative ACBM parameter (α=%d β=%d γnum=%d)", p.Alpha, p.Beta, p.GammaNum)
	}
	return nil
}

// Decision classifies how ACBM resolved one block.
type Decision int

const (
	// AcceptedEasy: condition 1 held — the block is smooth/well matched
	// for the current quantiser; the PBM vector was accepted.
	AcceptedEasy Decision = iota
	// AcceptedGoodMatch: condition 2 held — the block is textured but the
	// PBM match is near-minimal; the PBM vector was accepted.
	AcceptedGoodMatch
	// Critical: both conditions failed; FSBM was run.
	Critical
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case AcceptedEasy:
		return "easy"
	case AcceptedGoodMatch:
		return "good-match"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// Trace records the decision evidence for one block, for the experiment
// harness and for debugging parameter choices.
type Trace struct {
	IntraSAD   int
	PBMSAD     int
	Threshold1 int // α + β·Qp²
	Cond1      bool
	Cond2      bool
	Decision   Decision
	PBMPoints  int
	FSBMPoints int // 0 when FSBM was skipped
}

// Stats aggregates ACBM behaviour over many blocks.
type Stats struct {
	Blocks      int
	Easy        int
	GoodMatch   int
	CriticalCnt int
	Points      int64 // total candidate positions searched
	// Evaluated is the part of Points whose SAD kernel actually ran:
	// full search skips candidates its lower bound rules out.
	Evaluated int64
}

// AvgPoints returns the average number of candidate positions searched per
// block — the metric of the paper's Table 1.
func (s Stats) AvgPoints() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.Points) / float64(s.Blocks)
}

// FSBMRate returns the fraction of blocks classified critical.
func (s Stats) FSBMRate() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.CriticalCnt) / float64(s.Blocks)
}

// Add merges o into s.
func (s *Stats) Add(o Stats) {
	s.Blocks += o.Blocks
	s.Easy += o.Easy
	s.GoodMatch += o.GoodMatch
	s.CriticalCnt += o.CriticalCnt
	s.Points += o.Points
	s.Evaluated += o.Evaluated
}

// ACBM is the adaptive cost block matching searcher. It implements
// search.Searcher and accumulates Stats across calls; it is not safe for
// concurrent use (give each goroutine its own instance).
type ACBM struct {
	Params Params
	PBM    search.PBM
	FSBM   search.FSBM

	stats Stats
}

// New returns an ACBM searcher with the given parameters (zero Params
// fields fall back to DefaultParams).
func New(p Params) *ACBM {
	if p == (Params{}) {
		p = DefaultParams
	}
	return &ACBM{Params: p}
}

// Name implements search.Searcher.
func (a *ACBM) Name() string { return "ACBM" }

// Stats returns the accumulated per-block statistics.
func (a *ACBM) Stats() Stats { return a.stats }

// ResetStats clears the accumulated statistics.
func (a *ACBM) ResetStats() { a.stats = Stats{} }

// Search implements search.Searcher.
func (a *ACBM) Search(in *search.Input) search.Result {
	r, _ := a.SearchTrace(in)
	return r
}

// Fork implements search.Forker: the returned instance shares the parent's
// parameters but owns its statistics, so each encoder worker can run ACBM
// without synchronisation.
func (a *ACBM) Fork() search.Searcher {
	return &ACBM{Params: a.Params, PBM: a.PBM, FSBM: a.FSBM}
}

// Join implements search.Forker: it adds a forked instance's statistics
// back into the parent. Stats fields are plain sums, so the merged totals
// are independent of worker scheduling.
func (a *ACBM) Join(w search.Searcher) {
	if f, ok := w.(*ACBM); ok && f != a {
		a.stats.Add(f.stats)
	}
}

// SearchTrace runs ACBM on one block and returns the decision evidence
// alongside the result.
func (a *ACBM) SearchTrace(in *search.Input) (search.Result, Trace) {
	p := a.Params
	if p.GammaDen == 0 {
		p = DefaultParams
	}
	intra := metrics.IntraSAD(in.Cur, in.BX, in.BY, in.W, in.H)
	pbmRes := a.PBM.Search(in)

	tr := Trace{
		IntraSAD:   intra,
		PBMSAD:     pbmRes.SAD,
		Threshold1: p.Alpha + p.Beta*in.Qp*in.Qp,
		PBMPoints:  pbmRes.Points,
	}
	tr.Cond1 = intra+pbmRes.SAD < tr.Threshold1
	tr.Cond2 = pbmRes.SAD*p.GammaDen < p.GammaNum*intra

	a.stats.Blocks++
	switch {
	case tr.Cond1:
		tr.Decision = AcceptedEasy
		a.stats.Easy++
	case tr.Cond2:
		tr.Decision = AcceptedGoodMatch
		a.stats.GoodMatch++
	default:
		tr.Decision = Critical
		a.stats.CriticalCnt++
	}
	if tr.Decision != Critical {
		a.stats.Points += int64(pbmRes.Points)
		a.stats.Evaluated += int64(pbmRes.Evaluated)
		return pbmRes, tr
	}

	fsbmRes := a.FSBM.Search(in)
	tr.FSBMPoints = fsbmRes.Points
	total := pbmRes.Points + fsbmRes.Points
	evaluated := pbmRes.Evaluated + fsbmRes.Evaluated
	a.stats.Points += int64(total)
	a.stats.Evaluated += int64(evaluated)
	// Keep the better of the two vectors; PBM's half-pel position can in
	// rare cases beat FSBM's refinement of a different integer minimum.
	best := fsbmRes
	if pbmRes.SAD < fsbmRes.SAD {
		best = pbmRes
	}
	best.Points, best.Evaluated = total, evaluated
	return best, tr
}
