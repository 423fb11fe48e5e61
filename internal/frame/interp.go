package frame

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
)

// Interpolated is a half-pel upsampled view of a plane, built with the
// H.263 bilinear interpolation rules (rounding up, +1 before the shift).
//
// For a source plane of size W×H the interpolated grid has (2W)×(2H)
// positions. Position (2x, 2y) equals the integer sample (x, y); odd
// coordinates are the horizontal, vertical and diagonal half-pel samples.
// Samples referenced beyond the borders replicate the edge, so motion
// vectors that keep the *integer* block inside the frame are always valid
// at half-pel precision too.
//
// The view stores no half-pel sample: Block computes each prediction
// straight from the source plane, one or two source rows per block row.
// What the view does store is one integer-domain phase for the full
// search, the 16-wide horizontal row sums of the source (rowsum.go),
// filled lazily tile by tile under an atomic claim protocol so that
// concurrent wavefront workers first-touching the same tile are
// race-clean.
type Interpolated struct {
	W, H int // dimensions of the half-pel grid (2× source)

	src  *Plane
	rows atomic.Pointer[rowSumPhase]

	tcols, trows int // row-sum tile grid
}

const (
	// HalfPelApron is the margin, in full-pel units, by which a block
	// anchor may leave the plane and still be predicted on Block's row
	// fast path: chroma vectors derived from legal luma vectors overshoot
	// by at most one half-pel position.
	HalfPelApron = 2

	// MinInterpApron is the source-plane apron Block needs to serve every
	// anchor within HalfPelApron of the plane from replicated memory: a
	// half-pel sample at column x also reads source column x+1. Reference
	// planes should carry at least this much padding.
	MinInterpApron = HalfPelApron + 1

	// TileSize is the side of one lazily filled row-sum tile, in full-pel
	// units (a 16×16 macroblock footprint).
	TileSize = 16
)

const (
	tileEmpty uint32 = iota
	tileFilling
	tileReady
)

// interpKey buckets pooled views by source size, so concurrent sessions at
// mixed resolutions recycle only their own row-sum buffers.
type interpKey struct{ w, h int }

var interpPools sync.Map // interpKey → *sync.Pool

func interpPool(k interpKey) *sync.Pool {
	if p, ok := interpPools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := interpPools.LoadOrStore(k, &sync.Pool{})
	return p.(*sync.Pool)
}

// Interpolate returns the half-pel view of p, drawn from a size-bucketed
// pool. Nothing is computed up front: Block interpolates on demand and
// row sums fill on first touch. Hand the view back with Release once no
// reference to it remains. p must stay unchanged for the lifetime of the
// view, and a padded p must have its apron replicated (ReplicateApron),
// since Block reads it.
//
//	a = A
//	b = (A + B + 1) / 2
//	c = (A + C + 1) / 2
//	d = (A + B + C + D + 2) / 4
//
// where A is the integer sample and B, C, D its right, below and
// below-right neighbours (edge-replicated).
func Interpolate(p *Plane) *Interpolated {
	if v := interpPool(interpKey{p.W, p.H}).Get(); v != nil {
		ip := v.(*Interpolated)
		ip.src = p
		if rs := ip.rows.Load(); rs != nil {
			clear(rs.state)
		}
		return ip
	}
	return &Interpolated{
		W: 2 * p.W, H: 2 * p.H,
		src:   p,
		tcols: (p.W + TileSize - 1) / TileSize,
		trows: (p.H + TileSize - 1) / TileSize,
	}
}

// Release returns a view to its pool. It is safe to call on nil.
func (ip *Interpolated) Release() {
	if ip == nil {
		return
	}
	ip.src = nil
	interpPool(interpKey{ip.W / 2, ip.H / 2}).Put(ip)
}

// Src returns the source plane the view interpolates — the integer phase
// of the half-pel grid. Nil after Release.
func (ip *Interpolated) Src() *Plane { return ip.src }

// claimTile is the slow path of a tile access whose claim word st did not
// read tileReady (callers test that inline first). It reports whether
// the caller won the fill; the winner fills the tile and then stores
// tileReady. A false return means a concurrent winner has published its
// fill.
func claimTile(st *uint32) bool {
	if atomic.CompareAndSwapUint32(st, tileEmpty, tileFilling) {
		return true
	}
	for atomic.LoadUint32(st) != tileReady {
		runtime.Gosched()
	}
	return false
}

// avgRowUp writes the rounding-up byte average (a[i]+b[i]+1)>>1 into dst,
// eight samples per word: avg = (a|b) − ((a^b)>>1) per byte, carried out
// borrow-free with the low-7-bit mask.
func avgRowUp(dst, a, b []uint8) {
	n := len(dst)
	x := 0
	for ; x+8 <= n; x += 8 {
		va := leU64(a[x:])
		vb := leU64(b[x:])
		putLeU64(dst[x:], (va|vb)-((va^vb)>>1&0x7f7f7f7f7f7f7f7f))
	}
	for ; x < n; x++ {
		dst[x] = uint8((int(a[x]) + int(b[x]) + 1) >> 1)
	}
}

// quadRowUp writes (a+b+c+d+2)>>2 per sample into dst, eight samples per
// iteration via 16-bit lanes (sums ≤ 1022 fit a lane; the shift leak into
// the neighbouring lane is masked off before repacking).
func quadRowUp(dst, a, b, c, d []uint8) {
	const lo8 = 0x00ff00ff00ff00ff
	const ones = 0x0001000100010001
	n := len(dst)
	x := 0
	for ; x+8 <= n; x += 8 {
		va, vb := leU64(a[x:]), leU64(b[x:])
		vc, vd := leU64(c[x:]), leU64(d[x:])
		sumLo := va&lo8 + vb&lo8 + vc&lo8 + vd&lo8 + 2*ones
		sumHi := (va>>8)&lo8 + (vb>>8)&lo8 + (vc>>8)&lo8 + (vd>>8)&lo8 + 2*ones
		putLeU64(dst[x:], (sumLo>>2)&lo8|(sumHi>>2)&lo8<<8)
	}
	for ; x < n; x++ {
		dst[x] = uint8((int(a[x]) + int(b[x]) + int(c[x]) + int(d[x]) + 2) >> 2)
	}
}

// leU64/putLeU64 wrap the encoding/binary intrinsics (single MOVQ on
// amd64), matching the load idiom of internal/metrics' SWAR kernels.
func leU64(b []uint8) uint64 { return binary.LittleEndian.Uint64(b) }

func putLeU64(b []uint8, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// Block computes the w×h prediction block whose top-left corner sits at
// half-pel position (hx, hy) into dst (row-major, len ≥ w*h). Successive
// block samples are one full pel apart, so the whole block shares one
// half-pel phase and each block row is a copy, an avgRowUp or a quadRowUp
// over one or two source rows. Reads that stay within the source's
// replicated apron (or, for tight planes, inside the plane) take that row
// path; anything further out — vectors a corrupt stream can carry — falls
// back to per-sample edge clamping, with identical results wherever both
// apply.
func (ip *Interpolated) Block(dst []uint8, hx, hy, w, h int) {
	src := ip.src
	px, py := hx&1, hy&1
	if px|py != 0 {
		interpBlocks.Add(1)
		interpSamples.Add(uint64(w * h))
	}
	x0, y0, a := hx>>1, hy>>1, src.apron
	if x0 < -a || y0 < -a || x0+w+px > src.W+a || y0+h+py > src.H+a {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dst[y*w+x] = halfPelAt(src, hx+2*x, hy+2*y)
			}
		}
		return
	}
	// Index of sample (x0, y0) in the backing buffer; the apron makes
	// negative coordinates addressable.
	pix, o := src.Pix, y0*src.Stride+x0
	if a > 0 {
		pix, o = src.buf, o+a*src.Stride+a
	}
	st, n := src.Stride, w+px
	for y := 0; y < h; y, o = y+1, o+st {
		d, r0 := dst[y*w:y*w+w], pix[o:o+n]
		switch {
		case py == 0 && px == 0:
			copy(d, r0)
		case py == 0:
			avgRowUp(d, r0, r0[1:])
		case px == 0:
			avgRowUp(d, r0, pix[o+st:o+st+n])
		default:
			r1 := pix[o+st : o+st+n]
			quadRowUp(d, r0, r0[1:], r1, r1[1:])
		}
	}
}

// halfPelAt is the per-sample half-pel rule: the grid coordinate is
// clamped to [0, 2W)×[0, 2H), then interpolated from edge-replicated
// source samples. It is Block's fallback for far-out anchors and the
// scalar oracle its row path is tested against.
func halfPelAt(p *Plane, hx, hy int) uint8 {
	hx = min(max(hx, 0), 2*p.W-1)
	hy = min(max(hy, 0), 2*p.H-1)
	x, y := hx>>1, hy>>1
	a := int(p.At(x, y))
	b := int(p.AtClamped(x+1, y))
	c := int(p.AtClamped(x, y+1))
	d := int(p.AtClamped(x+1, y+1))
	switch {
	case hx&1 == 0 && hy&1 == 0:
		return uint8(a)
	case hy&1 == 0:
		return uint8((a + b + 1) >> 1)
	case hx&1 == 0:
		return uint8((a + c + 1) >> 1)
	}
	return uint8((a + b + c + d + 2) >> 2)
}
