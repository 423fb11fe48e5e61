//go:build amd64

package metrics

import "repro/internal/frame"

// This file provides the amd64 kernel tiers: SSE2 (architectural
// baseline — every amd64 CPU has it) built on PSADBW, the packed
// absolute-difference instruction that folds 16 byte differences into
// two quadword sums, and AVX2 where the CPU and OS support it (256-bit
// VPSADBW, two rows per iteration for the dominant 16-wide macroblock).
//
// The assembly in sad_amd64.s only sees flat byte pointers and strides;
// the wrappers below resolve plane geometry, so the .s file stays free
// of Go struct offsets. Every kernel computes the mathematically exact
// sum (and for capped kernels, the exact cumulative per-row sums), so
// they are bit-identical to the scalar reference by construction — and
// pinned to it by the differential and fuzz tests in dispatch_test.go.
//
// H.263 rounding notes:
//   - horizontal/vertical half-pel (a+b+1)>>1 is exactly PAVGB
//   - diagonal (a+b+c+d+2)>>2 is NOT a PAVGB composition (PAVGB of
//     PAVGBs rounds twice); the diagonal kernels widen to 16-bit words,
//     add the bias, shift, and pack back before PSADBW

// Assembly kernels (sad_amd64.s). All pointers address the first byte
// of the block; rows advance by the stride. w%8 == 0, w ≥ 8, h ≥ 1.
//
//go:noescape
func sadBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int

//go:noescape
func sadCappedBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h, cap int) int

//go:noescape
func planeSumBlkSSE2(p *byte, stride, w, h int) int

//go:noescape
func intraSADBlkSSE2(p *byte, stride, w, h, mu int) int

//go:noescape
func sadHpHBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int

//go:noescape
func sadHpVBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int

//go:noescape
func sadHpDBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int

//go:noescape
func sadHpHCappedBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h, cap int) int

//go:noescape
func sadHpVCappedBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h, cap int) int

//go:noescape
func sadHpDCappedBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h, cap int) int

// sadHpRingBlkSSE2 takes refTop = &ref.Pix[(ry-1)*stride+rx-1] (the row
// above the anchor, one column left) and writes the eight probe SADs to
// out slots 0..8, skipping the centre slot 4.
//
//go:noescape
func sadHpRingBlkSSE2(cur *byte, curStride int, refTop *byte, refStride int, w, h int, out *[9]int)

// The full-search kernels. rs/grid strides are in uint16 elements; ref
// points at the window origin and order at the first (u, v) int16 pair.
//
//go:noescape
func boundGridSSE2(cur *byte, curStride int, rs *uint16, rsStride, gw, gh, h int, grid *uint16, gstride int)

//go:noescape
func scanBlkSSE2(cur *byte, curStride int, ref *byte, refStride int, w, h int, order *Offset, n, u0, v0, gw, gh int, grid *uint16, gstride int) (idx, sad, evaluated int)

//go:noescape
func sadBlkAVX2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int

//go:noescape
func intraSADBlkAVX2(p *byte, stride, w, h, mu int) int

//go:noescape
func sadHpHBlkAVX2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int

//go:noescape
func sadHpVBlkAVX2(cur *byte, curStride int, ref *byte, refStride int, w, h int) int

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

// cpuFeatureSet reports the SIMD tiers this host's CPU + OS support.
type cpuFeatureSet struct {
	avx, avx2 bool
}

// cpuFeatures probes CPUID. AVX/AVX2 require the CPU flag, OSXSAVE, and
// the OS actually saving the YMM state (XGETBV XCR0 bits 1|2) — the
// standard three-part check: a hypervisor can expose AVX2 in CPUID
// while masking XSAVE, and issuing VEX ops there would fault.
func cpuFeatures() cpuFeatureSet {
	var f cpuFeatureSet
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 1 {
		return f
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit != 0 {
		xcr0, _ := xgetbvAsm()
		if xcr0&0x6 == 0x6 && ecx1&avxBit != 0 {
			f.avx = true
		}
	}
	if f.avx && maxLeaf >= 7 {
		_, ebx7, _, _ := cpuidAsm(7, 0)
		if ebx7&(1<<5) != 0 {
			f.avx2 = true
		}
	}
	return f
}

// DetectedCPUFeatures lists the SIMD feature flags relevant to kernel
// selection that the host CPU (and OS) advertise, in ascending order.
func DetectedCPUFeatures() []string {
	feats := []string{"sse2"} // architectural baseline on amd64
	f := cpuFeatures()
	if f.avx {
		feats = append(feats, "avx")
	}
	if f.avx2 {
		feats = append(feats, "avx2")
	}
	return feats
}

// archKernelTables returns the amd64 assembly tiers, slowest first:
// SSE2 unconditionally, AVX2 when the host supports it.
func archKernelTables() []*kernelTable {
	tables := []*kernelTable{sse2Table()}
	if cpuFeatures().avx2 {
		tables = append(tables, avx2Table())
	}
	return tables
}

// pix returns the address of sample (x, y) — the base pointer handed to
// the assembly. Bounds are the caller's contract (block in-plane); the
// slice index check here still guards the first byte.
func pix(p *frame.Plane, x, y int) *byte {
	return &p.Pix[y*p.Stride+x]
}

// gridPtr is the bound-grid base pointer the scan kernels take; nil
// disables the bound test.
func gridPtr(grid []uint16) *uint16 {
	if len(grid) == 0 {
		return nil
	}
	return &grid[0]
}

func sse2Table() *kernelTable {
	return &kernelTable{
		name: "sse2",
		sad: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
			return sadBlkSSE2(pix(cur, cx, cy), cur.Stride, pix(ref, rx, ry), ref.Stride, w, h)
		},
		sadCapped: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
			return sadCappedBlkSSE2(pix(cur, cx, cy), cur.Stride, pix(ref, rx, ry), ref.Stride, w, h, cap)
		},
		planeSum: func(p *frame.Plane, x, y, w, h int) int {
			return planeSumBlkSSE2(pix(p, x, y), p.Stride, w, h)
		},
		intraSAD: func(p *frame.Plane, x, y, w, h, mu int) int {
			return intraSADBlkSSE2(pix(p, x, y), p.Stride, w, h, mu)
		},
		hpH: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
			return sadHpHBlkSSE2(pix(cur, cx, cy), cur.Stride, pix(ref, rx, ry), ref.Stride, w, h)
		},
		hpV: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
			return sadHpVBlkSSE2(pix(cur, cx, cy), cur.Stride, pix(ref, rx, ry), ref.Stride, w, h)
		},
		hpD: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
			return sadHpDBlkSSE2(pix(cur, cx, cy), cur.Stride, pix(ref, rx, ry), ref.Stride, w, h)
		},
		hpHCapped: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
			return sadHpHCappedBlkSSE2(pix(cur, cx, cy), cur.Stride, pix(ref, rx, ry), ref.Stride, w, h, cap)
		},
		hpVCapped: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
			return sadHpVCappedBlkSSE2(pix(cur, cx, cy), cur.Stride, pix(ref, rx, ry), ref.Stride, w, h, cap)
		},
		hpDCapped: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
			return sadHpDCappedBlkSSE2(pix(cur, cx, cy), cur.Stride, pix(ref, rx, ry), ref.Stride, w, h, cap)
		},
		ring: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) (out [9]int) {
			sadHpRingBlkSSE2(pix(cur, cx, cy), cur.Stride,
				pix(ref, rx-1, ry-1), ref.Stride, w, h, &out)
			return out
		},
		boundGrid: func(cur *frame.Plane, cx, cy, h int, rs []uint16, stride, gw, gh int, grid []uint16, gs int) {
			boundGridSSE2(pix(cur, cx, cy), cur.Stride, &rs[0], stride, gw, gh, h, &grid[0], gs)
		},
		scan: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, bx, by, w, h int, win Window, order []Offset, grid []uint16, gs int) (int, int, int) {
			return scanBlkSSE2(pix(cur, cx, cy), cur.Stride, pix(ref, bx+win.U0, by+win.V0), ref.Stride, w, h,
				&order[0], len(order), win.U0, win.V0, win.Cols(), win.Rows(), gridPtr(grid), gs)
		},
	}
}

// avx2Table overrides the kernels where 256-bit lanes pay: plain SAD
// (the motion-search workhorse), IntraSAD and the H/V half-pel probes.
// The capped, diagonal, ring, bound-grid and scan kernels keep the SSE2
// implementations — their per-row folds and 16-bit widening leave little
// for wider lanes, and table entries may come from different tiers as
// long as each one is bit-exact.
func avx2Table() *kernelTable {
	t := *sse2Table()
	t.name = "avx2"
	t.sad = func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
		return sadBlkAVX2(pix(cur, cx, cy), cur.Stride, pix(ref, rx, ry), ref.Stride, w, h)
	}
	t.intraSAD = func(p *frame.Plane, x, y, w, h, mu int) int {
		return intraSADBlkAVX2(pix(p, x, y), p.Stride, w, h, mu)
	}
	t.hpH = func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
		return sadHpHBlkAVX2(pix(cur, cx, cy), cur.Stride, pix(ref, rx, ry), ref.Stride, w, h)
	}
	t.hpV = func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
		return sadHpVBlkAVX2(pix(cur, cx, cy), cur.Stride, pix(ref, rx, ry), ref.Stride, w, h)
	}
	return &t
}
