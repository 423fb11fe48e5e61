package experiment

import (
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/frame"
	"repro/internal/metrics"
)

// DispatchReport renders the SAD kernel dispatch state (detected CPU
// features, registered tiers, the active tier) and runs a one-shot
// sanity probe: every registered tier computes SAD, SADCapped, IntraSAD,
// the half-pel phases and a bound-pruned full search on a fixed block
// and must agree with the scalar reference bit-for-bit. It is the cheap
// CI-time version of the full differential suite in internal/metrics —
// catching a machine whose dispatch picked a broken tier (or silently
// fell back to scalar) before any benchmark numbers get trusted. The returned error is
// non-nil when the dispatch state is inconsistent or a probe mismatches.
func DispatchReport() (string, error) {
	var b strings.Builder
	tiers := metrics.KernelISAs()
	active := metrics.ActiveKernelISA()
	fmt.Fprintf(&b, "cpu features: %v\n", metrics.DetectedCPUFeatures())
	fmt.Fprintf(&b, "kernel tiers: %v (fallback order, best last)\n", tiers)
	fmt.Fprintf(&b, "active tier:  %s\n", active)
	if env := os.Getenv(metrics.KernelEnvVar); env != "" {
		fmt.Fprintf(&b, "env override: %s=%s\n", metrics.KernelEnvVar, env)
	}

	var errs []string
	if note := metrics.KernelInitNote(); note != "" {
		fmt.Fprintf(&b, "init note:    %s\n", note)
		errs = append(errs, fmt.Sprintf("kernel init degraded: %s", note))
	}
	if len(tiers) < 2 || tiers[0] != "scalar" || tiers[1] != "swar" {
		errs = append(errs, fmt.Sprintf("tier list %v does not start with scalar, swar", tiers))
	}
	has := func(list []string, s string) bool {
		for _, v := range list {
			if v == s {
				return true
			}
		}
		return false
	}
	for _, feat := range metrics.DetectedCPUFeatures() {
		if (feat == "sse2" || feat == "avx2") && !has(tiers, feat) {
			errs = append(errs, fmt.Sprintf("CPU reports %s but no %s tier registered", feat, feat))
		}
	}
	if !has(tiers, active) {
		errs = append(errs, fmt.Sprintf("active tier %q not in registered tiers %v", active, tiers))
	}
	if os.Getenv(metrics.KernelEnvVar) == "" && active != tiers[len(tiers)-1] {
		errs = append(errs, fmt.Sprintf("active tier %q is not the best registered tier %q and no %s override is set",
			active, tiers[len(tiers)-1], metrics.KernelEnvVar))
	}

	if probeErrs := probeKernelTiers(&b); len(probeErrs) > 0 {
		errs = append(errs, probeErrs...)
	}
	if len(errs) > 0 {
		return b.String(), fmt.Errorf("dispatch sanity: %s", strings.Join(errs, "; "))
	}
	return b.String(), nil
}

// probeKernelTiers runs the fixed probe block through every tier and
// appends one ok/mismatch line per tier.
func probeKernelTiers(b *strings.Builder) []string {
	rng := rand.New(rand.NewSource(42))
	mk := func() *frame.Plane {
		p := &frame.Plane{W: 48, H: 32, Stride: 53, Pix: make([]uint8, 53*32)}
		rng.Read(p.Pix)
		return p
	}
	cur, ref := mk(), mk()

	// Full search of the 16×16 block at (16, 8) over ±8, pruned by the
	// bound grid read from ref's row-sum phase.
	win := metrics.Window{U0: -8, V0: -8, U1: 8, V1: 8}
	gs := metrics.GridStride(win)
	refI := frame.InterpolateLazy(ref)
	defer refI.Release()
	sums, stride := refI.RowSums(16+win.U0, 8+win.V0, 16+win.U0+gs-1, 8+win.V1+15)
	grid := make([]uint16, win.Rows()*gs)
	var order []metrics.Offset
	for v := win.V0; v <= win.V1; v++ {
		for u := win.U0; u <= win.U1; u++ {
			order = append(order, metrics.Offset{U: int16(u), V: int16(v)})
		}
	}

	type probe struct {
		name string
		fn   func() int
	}
	probes := []probe{
		{"sad16x16", func() int { return metrics.SAD(cur, 8, 8, ref, 9, 7, 16, 16) }},
		{"sad12x8", func() int { return metrics.SAD(cur, 3, 5, ref, 6, 2, 12, 8) }},
		{"sadCapped", func() int { return metrics.SADCapped(cur, 8, 8, ref, 9, 7, 16, 16, 700) }},
		{"intraSAD", func() int { return metrics.IntraSAD(cur, 8, 8, 16, 16) }},
		{"halfPelH", func() int { return metrics.SADHalfPelPlane(cur, 8, 8, ref, 19, 14, 16, 16) }},
		{"halfPelV", func() int { return metrics.SADHalfPelPlane(cur, 8, 8, ref, 18, 15, 16, 16) }},
		{"halfPelD", func() int { return metrics.SADHalfPelPlane(cur, 8, 8, ref, 19, 15, 16, 16) }},
		{"ring", func() int {
			out := [9]int{4: -1}
			metrics.SADHalfPelRing(cur, 8, 8, ref, 9, 7, 16, 16, &out)
			sum := 0
			for _, v := range out {
				sum += v
			}
			return sum
		}},
		{"boundGrid", func() int {
			metrics.BoundGrid(cur, 16, 8, 16, sums, stride, 16, 8, win, grid)
			sum := 0
			for v := 0; v < win.Rows(); v++ {
				for _, g := range grid[v*gs : v*gs+win.Cols()] {
					sum += int(g)
				}
			}
			return sum
		}},
		{"scan", func() int {
			metrics.BoundGrid(cur, 16, 8, 16, sums, stride, 16, 8, win, grid)
			best, sad, evaluated := metrics.ScanSpiral(cur, 16, 8, ref, 16, 8, 16, 16, win, order, grid)
			return ((sad*1000+evaluated)*32+int(best.U)+8)*32 + int(best.V) + 8
		}},
	}

	want := make([]int, len(probes))
	restore, err := metrics.SetKernelISA("scalar")
	if err != nil {
		return []string{err.Error()}
	}
	for i, p := range probes {
		want[i] = p.fn()
	}
	restore()

	var errs []string
	for _, isa := range metrics.KernelISAs() {
		restore, err := metrics.SetKernelISA(isa)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		bad := 0
		for i, p := range probes {
			if got := p.fn(); got != want[i] {
				errs = append(errs, fmt.Sprintf("%s: probe %s = %d, scalar reference %d", isa, p.name, got, want[i]))
				bad++
			}
		}
		restore()
		if bad == 0 {
			fmt.Fprintf(b, "probe %-6s ok (%d kernels bit-identical to scalar)\n", isa, len(probes))
		}
	}
	return errs
}
