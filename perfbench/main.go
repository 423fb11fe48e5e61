// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time, checks every output byte for byte against a
// serial reference encode, and prints its metrics as the last line of
// standard output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It drives the program only through its public entry points: the codec
// library (codec.Encoder with the `vcodec encode` defaults) for
// batch-foreman-cif, and POST /encode on vcodecd behind vcodec-gateway,
// both launched from binaries built from this checkout, for the served
// workloads. The workloads, and why each exists, are described in
// workloads.go; the end-to-end metrics in metrics.go; the per-layer
// ledger of a --trace 1 run in ledger.go.
//
// A --trace 1 run also writes its spans, and the flight records of the
// sessions it served, to .bench_build/perfbench/trace-<workload>-seed<n>.jsonl.
//
// run.sh builds the binaries into .bench_build/ and execs this program;
// run it from the repository root:
//
//	bash perfbench/run.sh --workload batch-foreman-cif --seed 1 --seconds 40 --trace 0
//
// The benchmark is a module of its own, so the repository's `go test
// ./...` does not run its tests; run them with `cd perfbench && go test ./...`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/obs"
)

// buildDir is where run.sh puts the binaries and where runs keep their
// scratch files, relative to the repository root.
const buildDir = ".bench_build/perfbench"

func main() { os.Exit(run()) }

// run is main with an exit code, so that deferred clean-up runs.
func run() int {
	var (
		name    = flag.String("workload", "", "workload name (see workloads.go)")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed renders the same frames")
		seconds = flag.Float64("seconds", 40, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and prints the per-layer ledger instead of end-to-end metrics")
		sut     = flag.String("sut", "", "internal: run as the library system under test on this Y4M clip")
	)
	flag.Parse()
	if *sut != "" {
		if err := runLibrarySUT(*sut, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench sut:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	// Flight records are read after each session, and a session longer
	// than the recorder's ring would lose its oldest frames.
	if wl.clip*max(wl.rungs, 1) > obs.DefaultRingFrames {
		fmt.Fprintf(os.Stderr, "perfbench: %s sessions exceed the flight recorder's %d-frame ring\n", wl.name, obs.DefaultRingFrames)
		return 2
	}
	if err := checkBinaries(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runDir := filepath.Join(buildDir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	printJSON(map[string]any{"host": hostStamp(), "workload": wl.describe(), "seed": *seed, "seconds": *seconds, "trace": *trace})
	res, err := wl.run(wl, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: runDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printJSON(res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s FAILED verification: %d of %d frames failed\n", *name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runOpts are one invocation's parameters.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // per-run scratch directory under buildDir
}

// result is the final stdout line the contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value printed here is plain data
	}
	fmt.Println(string(b))
}

// checkBinaries fails early when run.sh has not built the served system.
func checkBinaries() error {
	for _, b := range []string{vcodecdBin, gatewayBin} {
		if _, err := os.Stat(b); err != nil {
			return fmt.Errorf("missing %s (run perfbench/run.sh from the repository root): %w", b, err)
		}
	}
	return nil
}
