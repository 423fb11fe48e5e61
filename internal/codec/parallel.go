package codec

import (
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/mvfield"
	"repro/internal/search"
)

// Wavefront-parallel macroblock analysis.
//
// The only cross-macroblock dependency in the analysis phase is the
// motion-field neighbourhood the predictive searchers read: PBM (and so
// ACBM) gathers candidates from the left (x−1,y), up-left (x−1,y−1), up
// (x,y−1) and up-right (x+1,y−1) entries of the current field. Under the
// anti-diagonal index d = x + 2y those neighbours live on diagonals d−1,
// d−3, d−2 and d−1 — all strictly earlier — so every macroblock of one
// diagonal can be analysed concurrently once the previous diagonal is
// complete. This is the same wavefront H.264/HEVC encoders use, adapted
// to this field's up-right (rather than up-left-only) reach.
//
// Every running macroblock task borrows a forked Searcher (search.Forker)
// for the frame; core.ACBM documents that it is not concurrency-safe, so
// no two tasks share an instance and the additive Stats merge back in
// Join. All other shared writes are disjoint: each macroblock touches
// only its own 16×16 (8×8 chroma) region of the reconstruction, its own
// motion-field entry and its own mbResult slot. The WaitGroup barrier
// between diagonals publishes those writes to the tasks of later
// diagonals.
//
// Determinism: the set of field entries visible to a macroblock equals
// exactly the causal set the sequential raster scan would have computed
// (Candidates reads only the four neighbours above), so every mbResult —
// and with it the serial entropy pass — is bit-identical for any worker
// count ≥ 1 and for any Pool.

// analyzeFrame fills results (and recon, and curField for P-frames) for
// every macroblock of src. Workers=1 without a Pool runs the sequential
// raster loop, the reference path. Otherwise the macroblocks run as
// tasks on Config.Pool or, for Workers=N, on a frame-private Pool of N
// that closes when the frame's analysis returns. Intra frames have no
// cross-MB dependencies and skip the wavefront barriers.
func (e *Encoder) analyzeFrame(src, recon *frame.Frame, curField *mvfield.Field, results []mbResult, intra bool) {
	pool := e.cfg.Pool
	if pool == nil {
		if e.workerCount() <= 1 {
			e.analyzeFrameSerial(src, recon, curField, results, intra)
			return
		}
		pool = NewPool(e.workerCount())
		defer pool.Close()
	}
	cols, rows := e.size.MacroblockCols(), e.size.MacroblockRows()
	if e.wf == nil {
		e.wf = e.newWavefront(cols, rows)
	}
	wf := e.wf
	wf.src, wf.recon, wf.field, wf.results, wf.intra = src, recon, curField, results, intra
	// Queue wait is a shared-pool signal (cross-session contention and
	// preemption stalls), so only a caller's Pool reports it; see
	// FrameObserver. The timestamps observe scheduling, never influence
	// it, so results are unchanged.
	wf.observe = e.cfg.Observer != nil && e.cfg.Pool != nil
	submit := func(idx int) {
		if wf.observe {
			wf.submitted[idx] = time.Now()
		}
		pool.submit(e.cfg.Priority, wf.tasks[idx])
	}

	if intra {
		wf.wg.Add(rows * cols)
		for idx := 0; idx < rows*cols; idx++ {
			submit(idx)
		}
		wf.wg.Wait()
		return
	}

	// One anti-diagonal has at most min(rows, cols/2+1) macroblocks, and
	// the pool runs at most pool.Size() tasks at once; forking the smaller
	// count guarantees a searcher is always available to a running task,
	// so borrowing never blocks. Each fork travels with its own scratch
	// search.Input, so the search allocates nothing per macroblock.
	// Searcher identity does not affect the search result — forks share
	// the parent's parameters and differ only in their additively merged
	// statistics.
	nf := min(rows, cols/2+1, pool.Size())
	wf.searchers = make(chan *analysisCtx, nf)
	for i := 0; i < nf; i++ {
		wf.searchers <- &analysisCtx{s: e.forker.Fork()}
	}
	for d := 0; d <= (cols-1)+2*(rows-1); d++ {
		loY := max((d-(cols-1)+1)/2, 0)
		hiY := min(d/2, rows-1)
		if hiY < loY {
			continue
		}
		wf.wg.Add(hiY - loY + 1)
		for mby := loY; mby <= hiY; mby++ {
			submit(mby*cols + d - 2*mby)
		}
		wf.wg.Wait() // barrier: diagonal complete, writes published
	}
	for i := 0; i < nf; i++ {
		e.forker.Join((<-wf.searchers).s)
	}
}

// analysisCtx is one forked searcher and its scratch search.Input,
// borrowed by one running macroblock task at a time.
type analysisCtx struct {
	s  search.Searcher
	in search.Input
}

// wavefront is an encoder's reusable macroblock-task state. Its tasks
// are built once, one per macroblock, and read the frame under analysis
// from the fields below, so submitting a frame allocates nothing per
// macroblock. analyzeFrame sets the fields before the frame's first
// submit (the pool's lock publishes them to the workers), and the
// WaitGroup barriers keep two frames' tasks from overlapping.
type wavefront struct {
	src, recon *frame.Frame
	field      *mvfield.Field
	results    []mbResult
	intra      bool
	observe    bool
	searchers  chan *analysisCtx
	submitted  []time.Time // per macroblock, set only when observe
	tasks      []func()
	wg         sync.WaitGroup
}

func (e *Encoder) newWavefront(cols, rows int) *wavefront {
	wf := &wavefront{submitted: make([]time.Time, cols*rows), tasks: make([]func(), cols*rows)}
	for idx := range wf.tasks {
		mbx, mby := idx%cols, idx/cols
		wf.tasks[idx] = func() {
			if wf.observe {
				e.noteQueueWait(time.Since(wf.submitted[idx]))
			}
			if wf.intra {
				e.analyzeIntraMB(wf.src, wf.recon, mbx, mby, &wf.results[idx])
			} else {
				c := <-wf.searchers
				e.analyzeInterMB(c.s, &c.in, wf.src, wf.recon, wf.field, mbx, mby, &wf.results[idx])
				wf.searchers <- c
			}
			wf.wg.Done()
		}
	}
	return wf
}

// analyzeFrameSerial is the sequential reference: one raster pass on the
// caller's goroutine. It still runs the frame-granular fork/join
// protocol: searchers with per-frame control state (core.Budgeted
// freezes its thresholds per frame and servos them at the last Join)
// must see the same frame boundaries at every worker count, or the
// bitstream would depend on Config.Workers.
func (e *Encoder) analyzeFrameSerial(src, recon *frame.Frame, curField *mvfield.Field, results []mbResult, intra bool) {
	cols, rows := e.size.MacroblockCols(), e.size.MacroblockRows()
	s := e.cfg.Searcher
	var forked search.Searcher
	if !intra && e.forker != nil {
		forked = e.forker.Fork()
		s = forked
	}
	var scratch search.Input
	for mby := 0; mby < rows; mby++ {
		for mbx := 0; mbx < cols; mbx++ {
			if intra {
				e.analyzeIntraMB(src, recon, mbx, mby, &results[mby*cols+mbx])
			} else {
				e.analyzeInterMB(s, &scratch, src, recon, curField, mbx, mby, &results[mby*cols+mbx])
			}
		}
	}
	if forked != nil {
		e.forker.Join(forked)
	}
}
