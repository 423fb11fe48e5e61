package search

import (
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/mvfield"
)

// Spiral scan order for the full search: candidates are visited centre
// outward (ascending L1 vector length) instead of in raster order, so the
// running minimum — and with it SADCapped's early-termination cap — drops
// after a handful of candidates instead of after half the raster. Real
// motion is overwhelmingly short, so the first rings almost always contain
// a near-minimal SAD and the remaining ~900 candidates of a ±15 search
// abort on their first rows.
//
// The scan order is chosen so the reported winner is IDENTICAL to the
// raster scan's, not merely equal in SAD. better() breaks SAD ties toward
// the shorter L1 vector, so the final winner of any scan order is the
// first-visited candidate among those minimising (SAD, L1) lexically.
// Visiting candidates sorted by (L1, then raster position v, u) makes that
// first-visited candidate the raster-minimal one — exactly the candidate
// the raster loop would have kept. Points counts are unchanged because the
// candidate set is unchanged.
var (
	spiralCache sync.Map // search range (int) → []mvfield.MV in scan order
	orderCache  sync.Map // search range (int) → []metrics.Offset, same order
)

// spiralOffsets returns all (2r+1)² full-pel candidate vectors for ±r,
// sorted centre-outward: ascending |u|+|v|, ties in raster (v, u) order.
func spiralOffsets(r int) []mvfield.MV {
	if v, ok := spiralCache.Load(r); ok {
		return v.([]mvfield.MV)
	}
	n := 2*r + 1
	offs := make([]mvfield.MV, 0, n*n)
	for v := -r; v <= r; v++ {
		for u := -r; u <= r; u++ {
			offs = append(offs, mvfield.FromFullPel(u, v))
		}
	}
	sort.SliceStable(offs, func(i, j int) bool {
		return offs[i].L1() < offs[j].L1()
	})
	actual, _ := spiralCache.LoadOrStore(r, offs)
	return actual.([]mvfield.MV)
}

// spiralOrder is spiralOffsets as full-pel displacements, the form the
// batched scan kernels read.
func spiralOrder(r int) []metrics.Offset {
	if v, ok := orderCache.Load(r); ok {
		return v.([]metrics.Offset)
	}
	mvs := spiralOffsets(r)
	order := make([]metrics.Offset, len(mvs))
	for i, mv := range mvs {
		u, v := mv.FullPel()
		order[i] = metrics.Offset{U: int16(u), V: int16(v)}
	}
	actual, _ := orderCache.LoadOrStore(r, order)
	return actual.([]metrics.Offset)
}
