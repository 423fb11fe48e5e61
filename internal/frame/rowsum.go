package frame

import "sync/atomic"

// RowSumWidth is the span of the row-sum phase: one 16-sample macroblock
// row.
const RowSumWidth = 16

// rowSumPhase is the row-sum phase of a view: S(x, y) = Σ src(x+i, y)
// over i < RowSumWidth, stored as uint16 (at most 16·255 = 4080) at
// sums[y·W+x] for x ∈ [0, W−RowSumWidth], y ∈ [0, H). The successive-
// elimination bound of the full search reads it (metrics.BoundGrid).
//
// Columns past W−RowSumWidth are never written and stay zero: they are
// the slack that lets vector kernels read whole lanes past the end of a
// clipped search window without leaving the buffer.
type rowSumPhase struct {
	sums  []uint16
	state []uint32 // one claim word per tile, as for the half-pel phases
}

// RowSums makes sure the row sums S(x, y) for x0 ≤ x ≤ x1, y0 ≤ y ≤ y1
// are filled and returns the phase buffer with its stride: S(x, y) is
// sums[y·stride+x]. Coordinates are clipped to the valid range, so a
// caller may ask for the columns its vector loads over-read. The first
// call allocates the phase; tiles fill on first touch under the same
// race-clean claim protocol as the half-pel phases, so intra frames and
// views no full search reads never pay for it. Returns nil for sources
// narrower than RowSumWidth.
func (ip *Interpolated) RowSums(x0, y0, x1, y1 int) (sums []uint16, stride int) {
	w, h := ip.W/2, ip.H/2
	if w < RowSumWidth {
		return nil, 0
	}
	rs := ip.rowSums()
	x0, y0 = max(x0, 0), max(y0, 0)
	x1, y1 = min(x1, w-RowSumWidth), min(y1, h-1)
	for ty := y0 / TileSize; ty <= y1/TileSize && x0 <= x1; ty++ {
		for tx := x0 / TileSize; tx <= x1/TileSize; tx++ {
			if st := &rs.state[ty*ip.tcols+tx]; atomic.LoadUint32(st) != tileReady && claimTile(st) {
				ip.fillRowSums(rs, tx, ty)
				atomic.StoreUint32(st, tileReady)
			}
		}
	}
	return rs.sums, w
}

// rowSums returns the view's row-sum phase, allocating it on first use.
// Pooled views keep it across recycling (InterpolateLazy clears its claim
// words), so steady-state encodes allocate it once per pooled view.
func (ip *Interpolated) rowSums() *rowSumPhase {
	if rs := ip.rows.Load(); rs != nil {
		return rs
	}
	rs := &rowSumPhase{
		sums:  make([]uint16, ip.W/2*ip.H/2),
		state: make([]uint32, ip.tcols*ip.trows),
	}
	if !ip.rows.CompareAndSwap(nil, rs) {
		return ip.rows.Load()
	}
	return rs
}

// fillRowSums computes the row sums of tile (tx, ty) with a sliding
// window: one 16-sample sum per row, then one add and one subtract per
// column. Like fillTile it is a pure function of the source plane, so a
// concurrent waiter sees the same bytes whichever worker filled it.
func (ip *Interpolated) fillRowSums(rs *rowSumPhase, tx, ty int) {
	w, h := ip.W/2, ip.H/2
	x0, x1 := tx*TileSize, min(tx*TileSize+TileSize, w-RowSumWidth+1)
	y1 := min(ty*TileSize+TileSize, h)
	for y := ty * TileSize; y < y1; y++ {
		row := ip.src.Row(y)
		out := rs.sums[y*w : y*w+x1]
		s := 0
		for _, v := range row[x0 : x0+RowSumWidth] {
			s += int(v)
		}
		for x := x0; x < x1; x++ {
			out[x] = uint16(s)
			if x+RowSumWidth < w {
				s += int(row[x+RowSumWidth]) - int(row[x])
			}
		}
	}
}
