package codec

// frameWriter is the one phase-2 driver behind EncodeSequence and
// EncodeStream. It hands each analysed frameJob to a sink (writeFrameJob
// for the contiguous stream, EncodeStream.emitJob for packets), either
// inline on the caller's goroutine or — with Config.Pipeline — on one
// writer goroutine, so the serial entropy coding (phase 2) of frame n
// overlaps the possibly wavefront-parallel macroblock analysis (phase 1)
// of frame n+1.
//
// The overlap is legal because the two phases touch disjoint state for
// different frames:
//
//   - entropy coding of frame n reads only its frameJob (results slab,
//     motion field, source and reconstruction) plus the entropy coder,
//     which no analysis step ever touches;
//   - analysis of frame n+1 needs only frame n's reconstruction and
//     motion field as prediction context, and both are final when
//     analyzeFrameJob for frame n returns — before its job is submitted.
//
// Exactly one frame is in flight: submit hands the job to the writer
// goroutine over an unbuffered channel, and jobs reach the sink in frame
// order, which keeps the (stateful) entropy coder — in particular the
// adaptive arithmetic contexts — seeing the exact symbol sequence of an
// inline encode. Output is byte-identical for every Workers/Pool/Pipeline
// setting (TestPipelineBitIdentical, TestPacketsPipelineBitIdentical).
//
// Buffer safety: the mbResult slabs and half-pel reference grids are
// pooled, and the overlap naturally double-buffers them — frame n's slab
// returns to the pool only after phase 2 finishes, by which time frame
// n+1's analysis has drawn a fresh one. A submitted job's source frame is
// read (PSNR) until the writer accepts the next job, or until close.
//
// Every submitted job passes through frameHandoff at the moment its write
// begins (pipelined) or has finished (inline), which is what keeps the
// frame-lag rate controller's decisions — and with them rate-controlled
// bitstreams — identical across modes.
//
// A sink error poisons the writer: the failing frame's bits are lost,
// every later job is dropped (its slab recycled) and submit, poisoned and
// close all return the error.
type frameWriter struct {
	e    *Encoder
	sink func(*frameJob) error

	// Pipelined plumbing; jobs is nil for the inline writer. err is
	// written only by the goroutine running the sink — the caller's when
	// inline, the writer goroutine's (before it closes failed) when
	// pipelined, where readers observe it through <-failed or <-done.
	jobs   chan *frameJob
	done   chan struct{}
	failed chan struct{}
	err    error
}

func newFrameWriter(e *Encoder, pipeline bool, sink func(*frameJob) error) *frameWriter {
	w := &frameWriter{e: e, sink: sink}
	if !pipeline {
		return w
	}
	w.jobs = make(chan *frameJob) // unbuffered: one frame in flight
	w.done = make(chan struct{})
	w.failed = make(chan struct{})
	go func() {
		defer close(w.done)
		for j := range w.jobs {
			if w.err != nil {
				dropJob(j)
				continue
			}
			if err := w.sink(j); err != nil {
				w.err = err
				close(w.failed)
			}
		}
	}()
	return w
}

// dropJob discards an analysed frame that will never be written,
// recycling its results slab.
func dropJob(j *frameJob) {
	putMBResults(j.results)
	j.results = nil
}

// poisoned returns the sink error once phase 2 has failed, nil before. It
// never blocks, so callers can skip analysing a frame that would be
// dropped.
func (w *frameWriter) poisoned() error {
	if w.jobs == nil {
		return w.err
	}
	select {
	case <-w.failed:
		return w.err
	default:
		return nil
	}
}

// submit hands an analysed job to phase 2 and runs its frame hand-off.
// Inline, the job is written before submit returns; pipelined, submit
// returns once the writer goroutine has accepted it.
func (w *frameWriter) submit(j *frameJob) error {
	if w.jobs == nil {
		if w.err != nil {
			dropJob(j)
			return w.err
		}
		if w.err = w.sink(j); w.err != nil {
			return w.err
		}
		w.e.frameHandoff(j)
		return nil
	}
	select {
	case w.jobs <- j:
		w.e.frameHandoff(j)
		return nil
	case <-w.failed:
		dropJob(j)
		return w.err
	}
}

// close drains the writer goroutine and returns the first sink error.
// Call it exactly once; submit must not be called afterwards.
func (w *frameWriter) close() error {
	if w.jobs != nil {
		close(w.jobs)
		<-w.done
	}
	return w.err
}
