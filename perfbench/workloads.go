package main

import (
	"sort"
	"strings"

	"repro/internal/frame"
	"repro/internal/video"
)

// workload is one set of inputs and one way of driving the program.
// Every input is rendered from the seed with video.Generate before any
// timing starts; the program receives only the rendered Y4M.
type workload struct {
	name    string
	why     string // the one-sentence reason it exists
	loop    string // open or closed loop, with its rate or client count
	profile video.Profile
	size    frame.Size
	clip    int    // frames per rendered clip (one session or one encode)
	rungs   int    // renditions per source frame (0 or 1 = one)
	qp      int    // base quantiser
	me      string // motion searcher
	path    string // entry point the load goes through
	query   string // /encode query of the served workloads
	run     func(*workload, runOpts) (*result, error)
}

var workloads = map[string]*workload{
	// The paper's worst case: on Foreman at Qp 16 ACBM escalates to full
	// search on more than 99% of macroblocks and search is about three
	// quarters of analysis time, so this is the workload that shows
	// search, SAD-kernel and worker-scaling changes. No HTTP, ingest or
	// gateway is involved.
	"batch-foreman-cif": {
		name:    "batch-foreman-cif",
		why:     "paper's worst case: ACBM full-searches >99% of macroblocks, so search, SAD kernels and worker scaling dominate",
		loop:    "closed loop, 1 caller, frames back to back",
		profile: video.Foreman, size: frame.CIF, clip: 30, qp: 16, me: "acbm",
		path: "library codec.Encoder.EncodeFrame, default Config (Workers=GOMAXPROCS, no pipeline)",
		run:  runBatch,
	},
	// The broadcast path: one upload, three renditions. It covers 608 KB
	// per frame of Y4M ingest, frame.Downscale, cross-layer seeding, rung
	// goroutine concurrency and a working set larger than L2, while
	// search stays light.
	"ladder-table-4cif": {
		name:    "ladder-table-4cif",
		why:     "broadcast path: 4CIF ingest, downscale, layer seeding and rung concurrency with a working set past L2 and light search",
		loop:    "closed loop, 1 connection, each upload sent as fast as the server reads it",
		profile: video.TableTennis, size: frame.Size{W: 704, H: 576}, clip: 24, rungs: 3, qp: 16, me: "acbm",
		path:  "POST /encode?ladder= on vcodecd behind vcodec-gateway",
		query: "qp=16&me=acbm&ladder=704x576,352x288,176x144",
		run:   runLadder,
	},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// describe is the provenance record printed with every result.
func (w *workload) describe() map[string]any {
	d := map[string]any{
		"name":     w.name,
		"why":      w.why,
		"loop":     w.loop,
		"profile":  w.profile.String(),
		"size":     w.size.String(),
		"frames":   w.clip,
		"qp":       w.qp,
		"searcher": w.me,
		"path":     w.path,
	}
	if w.query != "" {
		d["query"] = w.query
	}
	return d
}
