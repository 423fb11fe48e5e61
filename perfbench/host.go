package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiment"
	"repro/internal/metrics"
)

// testbed.json is the host this benchmark's bounds were tuned on.
//
//go:embed testbed.json
var testbedJSON []byte

type testbed struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	KernelISA  string `json:"kernel_isa"`
}

// hostStamp describes the host a result came from: experiment.DetectHost,
// GOMAXPROCS, the active SAD kernel ISA and any kernel-selection note.
// A host that differs from the testbed in CPU model, core count or ISA
// is flagged in the stamp and on standard error, so its numbers are
// never compared with the testbed's unawares.
func hostStamp() map[string]any {
	h := experiment.DetectHost()
	var tb testbed
	if err := json.Unmarshal(testbedJSON, &tb); err != nil {
		panic(err) // embedded at build time
	}
	gmp := runtime.GOMAXPROCS(0)
	var diffs []string
	if h.CPUModel != tb.CPUModel {
		diffs = append(diffs, fmt.Sprintf("cpu %q (testbed %q)", h.CPUModel, tb.CPUModel))
	}
	if h.NumCPU != tb.NumCPU || gmp != tb.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("%d CPUs, GOMAXPROCS %d (testbed %d, %d)", h.NumCPU, gmp, tb.NumCPU, tb.GOMAXPROCS))
	}
	if isa := metrics.ActiveKernelISA(); isa != tb.KernelISA {
		diffs = append(diffs, fmt.Sprintf("kernel ISA %s (testbed %s)", isa, tb.KernelISA))
	}
	for _, d := range diffs {
		fmt.Fprintln(os.Stderr, "perfbench: WARNING: host differs from the testbed:", d)
	}
	return map[string]any{
		"host":                 h,
		"gomaxprocs":           gmp,
		"kernel_isa":           metrics.ActiveKernelISA(),
		"kernel_init_note":     metrics.KernelInitNote(),
		"testbed":              tb,
		"matches_testbed":      len(diffs) == 0,
		"differs_from_testbed": diffs,
	}
}
