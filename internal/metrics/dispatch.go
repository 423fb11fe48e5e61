package metrics

import (
	"os"
	"sort"
	"sync/atomic"

	"repro/internal/frame"
)

// The SAD family dispatches through a package-level function-pointer
// table selected once at init from the host CPU: the fastest available
// ISA wins, and every slower tier stays registered as a fallback
// (avx2 → sse2 → swar → scalar). All tables are bit-identical by
// construction and by the differential/fuzz tests in dispatch_test.go —
// which ISA is active can never change a SAD value, a search winner or
// an encoded bit. The exported entry points in sad.go keep the guard
// conditions (width multiple of 8, lane-overflow bounds) uniform across
// ISAs, so the dispatch decision is the same on every architecture and
// the scalar tails run identically everywhere.
//
// The scalar loops remain the reference oracles; the SWAR kernels are
// the portable vector tier; per-architecture assembly (sad_amd64.s)
// plugs in above them. To add an ISA: implement the kernelTable
// contract in a dispatch_<arch>.go + .s pair, return it from
// archKernelTables (fastest last), and the differential tests pick it
// up automatically via KernelISAs.

// kernelTable is one ISA's implementation of the vector-eligible SAD
// family. Callers (the exported functions in sad.go) validate the
// geometry before dispatching:
//
//   - sad, planeSum: w%8 == 0, w ≤ 256, block in-plane
//   - sadCapped: w%8 == 0, w·h ≤ 256; must fold and early-exit on the
//     cumulative sum after every row, returning the exact per-row
//     early-termination value of sadCappedScalar
//   - intraSAD: like sad, with µ precomputed by the caller
//   - hpH/hpV/hpD (+Capped): fused half-pel probes anchored at the
//     integer position (rx, ry); phase offsets are implied by the slot.
//     w%8 == 0; uncapped w ≤ 256, capped w·h ≤ 256; rows rx..rx+w(+1)
//     and ry..ry+h(+1) in-plane per the phase
//   - ring: all 8 half-pel neighbours of (rx, ry) in one pass,
//     w%8 == 0, w·h ≤ 256, whole ring in-plane. Returns the probe
//     array BY VALUE with the centre slot zero — an out-pointer through
//     an indirect call would escape the caller's stack array to the
//     heap on every refinement; the exported SADHalfPelRing restores
//     the caller's centre slot to honour its contract
//   - boundGrid: the successive-elimination bound grid of BoundGrid for
//     a 16-wide block, 1 ≤ h ≤ 16; rs starts at the window origin's row
//     sum, and lanes past gw (up to gs) may be read and written
//   - scan: ScanSpiral's candidate loop, w%8 == 0, w·h ≤ 256, window in
//     plane; returns the winner's index in order (−1 if none), its exact
//     SAD and the evaluated count. A losing candidate may stop at any
//     row once its running sum reaches the minimum — only the winner,
//     the minimum and the count are observable, and those are fixed by
//     the bound test (bound ≥ minimum) and the strict < rule
type kernelTable struct {
	name string

	sad       func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int
	sadCapped func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int
	planeSum  func(p *frame.Plane, x, y, w, h int) int
	intraSAD  func(p *frame.Plane, x, y, w, h, mu int) int

	hpH func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int
	hpV func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int
	hpD func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int

	hpHCapped func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int
	hpVCapped func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int
	hpDCapped func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int

	ring func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) [9]int

	boundGrid func(cur *frame.Plane, cx, cy, h int, rs []uint16, stride, gw, gh int, grid []uint16, gs int)
	scan      func(cur *frame.Plane, cx, cy int, ref *frame.Plane, bx, by, w, h int, win Window, order []Offset, grid []uint16, gs int) (idx, sad, evaluated int)
}

// activeKernels is the table every exported SAD entry point reads. It is
// an atomic pointer so tests and experiments can swap ISAs (SetKernelISA)
// while encodes run under the race detector; on amd64 the load compiles
// to a plain MOV.
var activeKernels atomic.Pointer[kernelTable]

// kernelTables holds every ISA available on this host, slowest first.
var kernelTables []*kernelTable

// kernelInitNote records anything surprising during init (an env
// override that named an unavailable ISA); surfaced by the dispatch
// sanity check.
var kernelInitNote string

// KernelEnvVar, when set to an ISA name (scalar, swar, sse2, avx2),
// overrides the automatic pick at process start — the escape hatch for
// pinning benchmarks and for triaging a suspect kernel in production.
const KernelEnvVar = "VCODEC_SAD_KERNEL"

func kernels() *kernelTable { return activeKernels.Load() }

func init() {
	kernelTables = []*kernelTable{scalarTable(), swarTable()}
	kernelTables = append(kernelTables, archKernelTables()...)
	best := kernelTables[len(kernelTables)-1]
	if env := os.Getenv(KernelEnvVar); env != "" {
		if t := kernelTableByName(env); t != nil {
			best = t
		} else {
			kernelInitNote = KernelEnvVar + "=" + env + " names an unavailable ISA; using " + best.name
		}
	}
	activeKernels.Store(best)
}

func kernelTableByName(name string) *kernelTable {
	for _, t := range kernelTables {
		if t.name == name {
			return t
		}
	}
	return nil
}

// ActiveKernelISA names the SAD kernel tier currently dispatched to:
// "scalar", "swar", or an architecture-specific tier such as "sse2" or
// "avx2".
func ActiveKernelISA() string { return kernels().name }

// KernelISAs lists the tiers available on this host in fallback order,
// slowest first; the last entry is the automatic pick.
func KernelISAs() []string {
	names := make([]string, len(kernelTables))
	for i, t := range kernelTables {
		names[i] = t.name
	}
	return names
}

// KernelInitNote reports anything surprising about kernel selection at
// process start ("" when the automatic pick ran cleanly).
func KernelInitNote() string { return kernelInitNote }

// SetKernelISA activates the named kernel tier and returns a restore
// function, or an error naming the available tiers if the ISA does not
// exist on this host. It is safe to call while encodes run (the switch
// is atomic, and every tier is bit-identical), but it is process-global:
// intended for tests, benchmarks and the acbmbench ISA sweeps, not for
// per-session tuning.
func SetKernelISA(name string) (restore func(), err error) {
	t := kernelTableByName(name)
	if t == nil {
		avail := append([]string(nil), KernelISAs()...)
		sort.Strings(avail)
		return nil, &UnknownISAError{Name: name, Available: avail}
	}
	prev := activeKernels.Swap(t)
	return func() { activeKernels.Store(prev) }, nil
}

// UnknownISAError reports a SetKernelISA name not available on this host.
type UnknownISAError struct {
	Name      string
	Available []string
}

func (e *UnknownISAError) Error() string {
	msg := "metrics: unknown SAD kernel ISA " + e.Name + " (available:"
	for _, a := range e.Available {
		msg += " " + a
	}
	return msg + ")"
}

// scalarTable adapts the reference loops to the table contract. It is
// the ground truth every other tier is differential-tested against.
func scalarTable() *kernelTable {
	return &kernelTable{
		name:      "scalar",
		sad:       sadScalar,
		sadCapped: sadCappedScalar,
		planeSum:  planeSumScalar,
		intraSAD:  intraSADMuScalar,
		hpH: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
			return sadHalfPelPlaneScalar(cur, cx, cy, ref, 2*rx+1, 2*ry, w, h)
		},
		hpV: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
			return sadHalfPelPlaneScalar(cur, cx, cy, ref, 2*rx, 2*ry+1, w, h)
		},
		hpD: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) int {
			return sadHalfPelPlaneScalar(cur, cx, cy, ref, 2*rx+1, 2*ry+1, w, h)
		},
		hpHCapped: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
			return sadHalfPelPlaneCappedScalar(cur, cx, cy, ref, 2*rx+1, 2*ry, w, h, cap)
		},
		hpVCapped: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
			return sadHalfPelPlaneCappedScalar(cur, cx, cy, ref, 2*rx, 2*ry+1, w, h, cap)
		},
		hpDCapped: func(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h, cap int) int {
			return sadHalfPelPlaneCappedScalar(cur, cx, cy, ref, 2*rx+1, 2*ry+1, w, h, cap)
		},
		ring:      sadHalfPelRingScalar,
		boundGrid: boundGridScalar,
		scan:      scanCapped(sadCappedScalar),
	}
}

// swarTable is the portable 8-px/uint64 vector tier — the previous
// fastest path, now the universal fallback beneath the per-ISA assembly.
func swarTable() *kernelTable {
	return &kernelTable{
		name:      "swar",
		sad:       sadSWAR,
		sadCapped: sadCappedSWAR,
		planeSum:  planeSumSWAR,
		intraSAD:  intraSADSWAR,
		hpH:       sadHalfPelH,
		hpV:       sadHalfPelV,
		hpD:       sadHalfPelD,
		hpHCapped: sadHalfPelHCapped,
		hpVCapped: sadHalfPelVCapped,
		hpDCapped: sadHalfPelDCapped,
		ring:      sadHalfPelRingSWAR,
		boundGrid: boundGridScalar,
		scan:      scanCapped(sadCappedSWAR),
	}
}

// sadHalfPelRingScalar is the reference ring: eight independent scalar
// probes in the same slot order as the fused kernels.
func sadHalfPelRingScalar(cur *frame.Plane, cx, cy int, ref *frame.Plane, rx, ry, w, h int) (out [9]int) {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			out[(dy+1)*3+dx+1] = sadHalfPelPlaneScalar(cur, cx, cy, ref, 2*rx+dx, 2*ry+dy, w, h)
		}
	}
	return out
}
