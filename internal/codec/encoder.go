package codec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/mvfield"
	"repro/internal/search"
)

// mbMode is a macroblock coding mode.
type mbMode int

const (
	mbSkip mbMode = iota // COD=1: copy collocated block, zero MV
	mbInter
	mbIntra
)

// The encoder runs every frame in two phases:
//
//  1. analyze — motion estimation, mode decision, transform/quantisation
//     and reconstruction per macroblock. Results land in an mbResult per
//     MB and reconstructed pixels go straight into the (disjoint) MB
//     regions of the recon frame. This phase touches no entropy state, so
//     it can run across a worker pool (see parallel.go): macroblocks are
//     scheduled per anti-diagonal because the PBM/ACBM predictors read
//     only the left, up-left, up and up-right neighbours of the current
//     motion field.
//  2. write — serial raster-order serialisation of the stored results.
//     The entropy coder (including the adaptive arithmetic contexts) sees
//     exactly the sequence of symbols the seed's interleaved encoder
//     produced, so bitstreams are bit-identical for every worker count.
//
// mbResult captures everything phase 2 needs from phase 1.
type mbResult struct {
	mode   mbMode
	four   bool       // inter: four-vector (Annex F) macroblock
	mv     mvfield.MV // inter 1V: the macroblock vector
	subMV  [4]mvfield.MV
	points int     // candidate positions considered (Table 1 metric)
	scored int     // the part of points whose SAD kernel ran
	coded  [6]bool // inter: per-block coded flags (Y0..Y3, Cb, Cr)
	// levels holds the quantised coefficients in coding order: the four
	// luma blocks, then Cb, then Cr — intra and inter modes both use it.
	levels [6]dct.Block
}

// mbResultsPool recycles the per-frame result slabs (~1.6 KiB per MB)
// across frames and encoder instances.
var mbResultsPool sync.Pool // stores *[]mbResult

func getMBResults(n int) []mbResult {
	if v, _ := mbResultsPool.Get().(*[]mbResult); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]mbResult, n)
}

func putMBResults(rs []mbResult) {
	mbResultsPool.Put(&rs)
}

// Encoder encodes a sequence of equally sized frames: the first as an
// I-frame, the rest as P-frames referencing the previous reconstruction
// (plus periodic I-frames when Config.IntraPeriod is set).
//
// The bitstream is finalised by the first call to Bitstream; frames cannot
// be added afterwards.
type Encoder struct {
	cfg  Config
	size frame.Size
	// forker is cfg.Searcher's frame-granular fork/join capability. Every
	// searcher this module provides implements it; withDefaults forces
	// Workers=1 and Pool=nil for external ones that do not, so a nil
	// forker only ever reaches the plain sequential loop.
	forker search.Forker
	// wf holds the wavefront's per-macroblock tasks, built at the first
	// parallel frame (parallel.go).
	wf *wavefront

	sw       symWriter
	out      []byte
	finished bool

	curQp int             // quantiser for the current frame
	rc    *rateController // nil unless Config.TargetKbps > 0
	// qpOffset is the QoS degradation offset added on top of the base
	// quantiser (cfg.Qp or the rate controller's plan) each frame; it and
	// pendingSearcher are written only by applyActuation on the session
	// goroutine between frames (see Actuation).
	qpOffset int
	// pendingSearcher, when non-nil, replaces cfg.Searcher at the next
	// frame's analysis, forcing that frame intra so the swap never reads
	// another searcher's motion-field assumptions.
	pendingSearcher search.Searcher
	// rcPrevJob is the last job whose write phase began: frameHandoff
	// settles its wroteBits at the next hand-off. One field serves the
	// serial and pipelined drivers alike (see frameHandoff for the memory
	// ordering in the pipelined case).
	rcPrevJob *frameJob

	// lumaApron/chromaApron are the replicated borders carried by every
	// reconstruction plane: the motion range plus the half-pel margin for
	// luma, so any position a searcher or the interpolation may read is
	// backed by real edge-replicated memory.
	lumaApron   int
	chromaApron int

	recon     *frame.Frame // reference: last reconstructed frame
	reconY    *frame.Interpolated
	reconCb   *frame.Interpolated
	reconCr   *frame.Interpolated
	prevField *mvfield.Field
	frames    int

	// obsWaitNs/obsStallNs accumulate the current frame's shared-pool
	// queue wait (summed across MB tasks, and the worst single task).
	// Pool workers add via noteQueueWait; the session goroutine drains
	// both with Swap(0) when it reports the frame to cfg.Observer. Only
	// touched when an Observer is attached.
	obsWaitNs  atomic.Int64
	obsStallNs atomic.Int64

	stats SequenceStats
}

// NewEncoder returns an encoder for the given configuration.
func NewEncoder(cfg Config) *Encoder {
	cfg = cfg.withDefaults()
	e := &Encoder{
		cfg:   cfg,
		sw:    newSymWriter(cfg.Entropy),
		curQp: cfg.Qp,
		stats: SequenceStats{FPS: cfg.FPS},
	}
	e.forker, _ = cfg.Searcher.(search.Forker)
	if cfg.TargetKbps > 0 {
		e.rc = newRateController(cfg.TargetKbps, cfg.FPS, cfg.Qp)
	}
	e.lumaApron, e.chromaApron = refAprons(cfg.SearchRange)
	return e
}

// refAprons sizes the reconstruction-plane borders for a motion search
// range: the luma apron covers the full range plus the half-pel margin,
// the chroma apron the halved range — both at least the minimum the
// half-pel interpolation needs to fill its own border without clamping.
func refAprons(searchRange int) (luma, chroma int) {
	luma = searchRange + 1
	if luma < frame.MinInterpApron {
		luma = frame.MinInterpApron
	}
	chroma = luma / 2
	if chroma < frame.MinInterpApron {
		chroma = frame.MinInterpApron
	}
	return luma, chroma
}

// workerCount resolves how many goroutines may analyse macroblocks
// concurrently. withDefaults has already forced 1 for searchers that
// cannot fork, so this is purely the configured width.
func (e *Encoder) workerCount() int {
	if e.cfg.Workers <= 1 {
		return 1
	}
	return e.cfg.Workers
}

// Stats returns per-frame statistics for everything encoded so far. In
// arithmetic entropy mode the per-frame bit counts are approximate (the
// range coder buffers up to a few bytes across frame boundaries); totals
// are exact.
func (e *Encoder) Stats() *SequenceStats { return &e.stats }

// Bitstream finalises and returns the encoded stream. The first call ends
// the sequence; subsequent EncodeFrame calls fail.
func (e *Encoder) Bitstream() []byte {
	if !e.finished {
		if e.frames > 0 {
			e.sw.Flag(sctxMore, false)
			e.out = e.sw.Finish()
		}
		e.finished = true
		e.rcPrevJob = nil // release the last retained frame pair
	}
	return e.out
}

// Reconstruction returns the most recent reconstructed frame (the decoder
// will produce exactly this), or nil before any frame is encoded.
func (e *Encoder) Reconstruction() *frame.Frame {
	if e.recon == nil {
		return nil
	}
	return e.recon.Clone()
}

// frameJob carries one analysed frame from phase 1 (analysis) to phase 2
// (entropy coding). Everything the write phase needs is captured here, so
// the two phases can run on different goroutines for *different* frames:
// entropy coding of frame n only reads its job, while analysis of frame
// n+1 reads the encoder's reference state — which is final once the job
// for frame n has been built (see frameWriter for the overlap contract).
type frameJob struct {
	index    int            // frame number within the sequence
	src      *frame.Frame   // source frame (PSNR); must not change until written
	recon    *frame.Frame   // this frame's deblocked reconstruction (PSNR)
	results  []mbResult     // per-macroblock analysis output (pooled)
	curField *mvfield.Field // P-frames: final motion field for MVD prediction
	intra    bool
	qp       int
	// prevRef is the reference frame this job's analysis read (the
	// previous reconstruction), retired to the frame pool at this job's
	// hand-off — the first point where both its readers are provably done:
	// this job's analysis, and the previous job's write phase (PSNR).
	prevRef *frame.Frame
	// cost is the rate controller's complexity proxy (jobCost), computed
	// from the analysis results before the slab returns to the pool. It is
	// worker-invariant, so predicted bits — and with them every quantiser
	// decision — are identical for every Workers/Pool/Pipeline setting.
	cost int
	// wroteBits is the frame's actual encoded size, filled in by the write
	// phase. In pipelined encodes it is owned by the writer goroutine and
	// may be read by the analysis side only after the *next* job's hand-off
	// (the channel send establishes the happens-before edge).
	wroteBits int
}

// jobCost computes the rate controller's complexity proxy for an analysed
// frame: the number of nonzero quantised coefficients plus small fixed
// charges for headers, modes and motion vectors. It is a pure function of
// the (worker-invariant) analysis results, never of scheduling, which is
// what keeps rate-controlled bitstreams byte-identical across every
// Workers, Pool and Pipeline configuration.
func jobCost(results []mbResult) int {
	cost := 0
	for i := range results {
		r := &results[i]
		switch r.mode {
		case mbSkip:
			cost++
			continue
		case mbIntra:
			cost += 8 // mode flags + six 8-bit DC terms
		case mbInter:
			cost += 4 // COD/mode flags + CBP
			if r.four {
				cost += 12 // three extra MVD pairs
			} else {
				cost += 4
			}
		}
		for b := range r.levels {
			if !r.coded[b] {
				continue
			}
			for _, c := range r.levels[b] {
				if c != 0 {
					cost++
				}
			}
		}
	}
	return cost
}

// analyzeFrameJob runs phase 1 for f: motion estimation, mode decision,
// transform/quantisation and reconstruction for every macroblock, then
// installs the new reconstruction as the prediction reference. It touches
// no entropy state.
func (e *Encoder) analyzeFrameJob(f *frame.Frame) (*frameJob, error) {
	if e.finished {
		return nil, fmt.Errorf("codec: encoder finalised by Bitstream; cannot add frames")
	}
	if e.frames == 0 {
		if err := validateSize(f.Size()); err != nil {
			return nil, err
		}
		e.size = f.Size()
	} else if f.Size() != e.size {
		return nil, fmt.Errorf("codec: frame size changed from %v to %v", e.size, f.Size())
	}
	base := e.cfg.Qp
	if e.rc != nil {
		base = e.rc.currentQp()
	}
	e.curQp = dct.ClampQp(base + e.qpOffset)
	start := time.Now()
	intra := e.frames == 0 ||
		(e.cfg.IntraPeriod > 0 && e.frames%e.cfg.IntraPeriod == 0)
	if e.pendingSearcher != nil {
		// An actuated searcher swap lands here: the frame is forced intra
		// (no motion search, motion field reset), so the incoming searcher
		// never observes state the outgoing one produced.
		intra = true
		e.cfg.Searcher = e.pendingSearcher
		e.forker, _ = e.cfg.Searcher.(search.Forker)
		if e.forker == nil {
			e.cfg.Workers = 1
			e.cfg.Pool = nil
		}
		e.pendingSearcher = nil
	}
	cols, rows := e.size.MacroblockCols(), e.size.MacroblockRows()
	j := &frameJob{index: e.frames, src: f, intra: intra, qp: e.curQp, prevRef: e.recon}
	// The reconstruction is drawn (unzeroed) from the size-bucketed frame
	// pool: analysis writes every visible sample macroblock by macroblock,
	// and refreshReference replicates the apron, so no stale byte survives.
	recon := frame.GetFramePadded(e.size, e.lumaApron, e.chromaApron)
	j.results = getMBResults(cols * rows)
	if intra {
		e.analyzeFrame(f, recon, nil, j.results, true)
		e.refreshReference(recon)
		e.prevField = mvfield.NewField(cols, rows) // all-zero motion
	} else {
		j.curField = mvfield.NewField(cols, rows)
		e.analyzeFrame(f, recon, j.curField, j.results, false)
		e.refreshReference(recon)
		e.prevField = j.curField
	}
	j.recon = e.recon // the deblocked reconstruction
	if e.rc != nil {
		j.cost = jobCost(j.results)
	}
	e.frames++
	wall := time.Since(start)
	if ob := e.cfg.Observer; ob != nil {
		ob.FrameAnalyzed(j.index, wall,
			time.Duration(e.obsWaitNs.Swap(0)), time.Duration(e.obsStallNs.Swap(0)),
			j.intra, j.qp)
	}
	return j, nil
}

// frameHandoff runs the per-frame hand-off protocol for job j — the
// moment j's entropy write begins (pipelined drivers: call it on the
// submitting goroutine immediately after j's channel send completes) or
// has just finished (serial drivers: after writing j). Two things happen
// here, both relying on the same guarantee — that the previously handed
// job's write phase is complete by now:
//
//   - The reference frame j's analysis read (j.prevRef) is retired to the
//     frame pool: its last readers were j's analysis (done before the
//     hand-off) and the previous job's PSNR statistics (done when the
//     writer accepted j).
//   - The frame-lag rate controller settles the previous job's actual
//     size and plans the next quantiser. Calling it at the same point of
//     the frame sequence in every driver is what keeps rate-controlled
//     output byte-identical across all of them.
//
// Memory ordering (pipelined): the unbuffered channel send completing
// means the writer accepted j, having finished — and published, via the
// happens-before edge of the hand-off — the previous job's wroteBits and
// its last reads of the retired reference.
func (e *Encoder) frameHandoff(j *frameJob) {
	if j.prevRef != nil {
		j.prevRef.Release()
		j.prevRef = nil
	}
	if e.rc == nil {
		return
	}
	if j.index > 0 {
		prevBits := 0
		if e.rcPrevJob != nil {
			prevBits = e.rcPrevJob.wroteBits
		}
		e.rc.settle(prevBits)
	}
	e.rc.plan(j.intra, j.cost)
	e.rcPrevJob = j
}

// writeFrameJob runs phase 2 for an analysed frame: the serial entropy
// coding of the stored results, plus bit accounting and PSNR statistics.
// Jobs must be written in frame order (the entropy coder is stateful).
func (e *Encoder) writeFrameJob(j *frameJob) FrameStats {
	start := time.Now()
	if j.index == 0 {
		e.writeSequenceHeader()
	}
	startBits := e.sw.Len()
	e.sw.Flag(sctxMore, true)
	fs := e.writeFrameBody(j)
	fs.Bits = e.sw.Len() - startBits
	fs.Qp = j.qp
	j.wroteBits = fs.Bits
	wall := time.Since(start)
	if ob := e.cfg.Observer; ob != nil {
		ob.FrameWritten(j.index, wall, fs.Bits)
	}

	py, _ := frame.PSNR(j.src.Y, j.recon.Y)
	pcb, _ := frame.PSNR(j.src.Cb, j.recon.Cb)
	pcr, _ := frame.PSNR(j.src.Cr, j.recon.Cr)
	fs.PSNRY, fs.PSNRCb, fs.PSNRCr = py, pcb, pcr

	e.stats.Frames = append(e.stats.Frames, fs)
	return fs
}

// writeFrameBody serialises the frame header and every macroblock of j,
// returning the type and macroblock-mode statistics. The results slab is
// returned to the pool. Shared by the stream writer (writeFrameJob) and
// the packetized transport (EncodePackets), which frame the body
// differently.
func (e *Encoder) writeFrameBody(j *frameJob) FrameStats {
	cols, rows := e.size.MacroblockCols(), e.size.MacroblockRows()
	fs := FrameStats{Macroblocks: cols * rows}
	if j.intra {
		fs.Type = IFrame
		fs.IntraMBs = cols * rows
		e.writeFrameHeader(IFrame, j.qp)
		for i := range j.results {
			e.writeIntraMB(&j.results[i])
		}
	} else {
		fs.Type = PFrame
		e.writeFrameHeader(PFrame, j.qp)
		for mby := 0; mby < rows; mby++ {
			for mbx := 0; mbx < cols; mbx++ {
				r := &j.results[mby*cols+mbx]
				e.writeInterMB(r, j.curField, mbx, mby)
				fs.SearchPoints += r.points
				fs.SearchEvaluated += r.scored
				switch r.mode {
				case mbSkip:
					fs.SkipMBs++
				case mbInter:
					fs.InterMBs++
					if r.four {
						fs.Inter4VMBs++
					}
				case mbIntra:
					fs.IntraMBs++
				}
			}
		}
	}
	putMBResults(j.results)
	j.results = nil
	return fs
}

// EncodeFrame appends one frame to the stream and returns its statistics.
// Rate control runs the frame-lag protocol even though the actual bit
// count is already known here: the controller must see exactly the
// information a pipelined encode would, so serial and pipelined
// rate-controlled bitstreams stay byte-identical.
func (e *Encoder) EncodeFrame(f *frame.Frame) (FrameStats, error) {
	j, err := e.analyzeFrameJob(f)
	if err != nil {
		return FrameStats{}, err
	}
	fs := e.writeFrameJob(j)
	e.frameHandoff(j)
	return fs, nil
}

func (e *Encoder) writeSequenceHeader() {
	e.sw.RawHeader(Magic, 32)
	e.sw.UEHeader(uint32(e.size.W / 16))
	e.sw.UEHeader(uint32(e.size.H / 16))
	e.sw.RawHeader(uint64(e.cfg.Entropy), 1)
	e.sw.BeginData()
}

func (e *Encoder) writeFrameHeader(t FrameType, qp int) {
	if t == IFrame {
		e.sw.Bits(0, 1)
	} else {
		e.sw.Bits(1, 1)
	}
	e.sw.Bits(uint64(qp), 5)
	if e.cfg.Deblock {
		e.sw.Bits(1, 1)
	} else {
		e.sw.Bits(0, 1)
	}
}

// writeCoeffs serialises a block's quantised levels as (run, level, last)
// events over the zig-zag scan. The block must have ≥1 non-zero level.
func writeCoeffs(sw symWriter, b *dct.Block) {
	var scan [64]int32
	dct.Scan(&scan, b)
	lastNZ := -1
	for i, c := range scan {
		if c != 0 {
			lastNZ = i
		}
	}
	if lastNZ < 0 {
		panic("codec: writeCoeffs on an all-zero block")
	}
	run := 0
	for i := 0; i <= lastNZ; i++ {
		c := scan[i]
		if c == 0 {
			run++
			continue
		}
		sw.RunLevelLast(uint32(run), c, i == lastNZ)
		run = 0
	}
}

// refreshReference installs recon as the prediction reference: the
// in-loop filter runs first, then the plane aprons are replicated (the
// once-per-frame moment border memory is refreshed — analysis of the next
// frame may read the apron freely), and the half-pel view is reset to
// lazy: no half-pel sample is computed until refinement or compensation
// actually lands on its tile. The previous frame's view returns to the
// size-bucketed pool.
func (e *Encoder) refreshReference(recon *frame.Frame) {
	if e.cfg.Deblock {
		deblockFrame(recon, e.curQp)
	}
	recon.ReplicateAprons()
	e.recon = recon
	e.reconY.Release()
	e.reconCb.Release()
	e.reconCr.Release()
	e.reconY = frame.InterpolateLazy(recon.Y)
	e.reconCb = frame.InterpolateLazy(recon.Cb)
	e.reconCr = frame.InterpolateLazy(recon.Cr)
}

// analyzeIntraMB transforms, quantises and reconstructs the six intra
// blocks of MB (mbx, mby), leaving the levels — and the per-block AC-coded
// flags, so the write phase never re-scans the coefficients — in r.
func (e *Encoder) analyzeIntraMB(src, recon *frame.Frame, mbx, mby int, r *mbResult) {
	r.mode = mbIntra
	r.four = false
	r.points, r.scored = 0, 0
	x, y := 16*mbx, 16*mby
	var cur, rec dct.Block
	code := func(p, rp *frame.Plane, bx, by int, levels *dct.Block) bool {
		loadBlock(&cur, p, bx, by)
		encodeIntraBlock(levels, &cur, e.curQp)
		reconIntraBlock(&rec, levels, e.curQp)
		storeBlock(rp, bx, by, &rec)
		return acCoded(levels)
	}
	for i, off := range lumaBlockOffsets {
		r.coded[i] = code(src.Y, recon.Y, x+off[0], y+off[1], &r.levels[i])
	}
	r.coded[4] = code(src.Cb, recon.Cb, 8*mbx, 8*mby, &r.levels[4])
	r.coded[5] = code(src.Cr, recon.Cr, 8*mbx, 8*mby, &r.levels[5])
}

// writeIntraMB serialises the six intra blocks analysed into r. DC is an
// 8-bit FLC and AC are TCOEF events behind a coded flag, mirroring the
// H.263 INTRADC + TCOEF structure. The AC-coded flags were computed during
// analysis (r.coded).
func (e *Encoder) writeIntraMB(r *mbResult) {
	for i := range r.levels {
		levels := &r.levels[i]
		e.sw.Bits(uint64(levels[0]), 8)
		if r.coded[i] {
			e.sw.Flag(sctxACFlag, true)
			ac := *levels
			ac[0] = 0
			writeCoeffs(e.sw, &ac)
		} else {
			e.sw.Flag(sctxACFlag, false)
		}
	}
}

// analyzeInterMB performs motion estimation, mode decision, residual
// coding and reconstruction for one P-frame macroblock, recording the
// outcome in r. It must observe only the left/up-left/up/up-right
// neighbours of curField (the wavefront invariant parallel.go schedules
// around) and may write solely to its own MB region of recon, its own
// curField entry, and r. The caller supplies a per-worker scratch Input
// (in), reused across macroblocks so the search problem never allocates.
func (e *Encoder) analyzeInterMB(s search.Searcher, in *search.Input, src, recon *frame.Frame, curField *mvfield.Field, mbx, mby int, r *mbResult) {
	x, y := 16*mbx, 16*mby
	*in = search.Input{
		Cur: src.Y, Ref: e.recon.Y, RefI: e.reconY,
		BX: x, BY: y, W: 16, H: 16,
		Range: e.cfg.SearchRange, Qp: e.curQp,
		CurField: curField, PrevField: e.prevField,
		MBX: mbx, MBY: mby,
		PixelDecimation: e.cfg.PixelDecimation,
	}
	res := s.Search(in)

	// Mode decision (TMN-style): intra wins when the block's internal
	// variation is clearly below the best matching error.
	intraSAD := metrics.IntraSAD(src.Y, x, y, 16, 16)
	if intraSAD < res.SAD-e.cfg.IntraBias {
		e.analyzeIntraMB(src, recon, mbx, mby, r)
		r.points, r.scored = res.Points, res.Evaluated
		curField.Set(mbx, mby, mvfield.Zero)
		return
	}

	mv := res.MV
	pts, scored := res.Points, res.Evaluated

	// Advanced prediction: refine one vector per 8×8 luma block around
	// the macroblock vector and take the four-vector mode when the summed
	// matching error wins by the configured bias.
	if e.cfg.AdvancedPrediction {
		var subMV [4]mvfield.MV
		sum8 := 0
		for i, off := range lumaBlockOffsets {
			// The macroblock search result is already extracted, so the
			// scratch Input is free to describe the 8×8 sub-problems.
			*in = search.Input{
				Cur: src.Y, Ref: e.recon.Y, RefI: e.reconY,
				BX: x + off[0], BY: y + off[1], W: 8, H: 8,
				Range: e.cfg.SearchRange, Qp: e.curQp,
				PixelDecimation: e.cfg.PixelDecimation,
			}
			smv, ssad, spts := refineSubBlock(in, mv)
			subMV[i], pts, scored = smv, pts+spts, scored+spts
			sum8 += ssad
		}
		if sum8 < res.SAD-e.cfg.Inter4VBias {
			e.analyzeInter4VMB(src, recon, mbx, mby, subMV, r)
			r.points, r.scored = pts, scored
			curField.Set(mbx, mby, avgMV(subMV))
			return
		}
	}

	cmv := chromaMV(mv)

	// Transform and quantise all six blocks first so the skip decision
	// can see the coded-block pattern.
	var lumaPred [4]dct.Block
	var cur dct.Block
	for i, off := range lumaBlockOffsets {
		loadBlock(&cur, src.Y, x+off[0], y+off[1])
		predBlock(&lumaPred[i], e.reconY, x+off[0], y+off[1], mv)
		r.coded[i] = encodeInterBlock(&r.levels[i], &cur, &lumaPred[i], e.curQp)
	}
	var cbPred, crPred dct.Block
	cx, cy := 8*mbx, 8*mby
	loadBlock(&cur, src.Cb, cx, cy)
	predBlock(&cbPred, e.reconCb, cx, cy, cmv)
	r.coded[4] = encodeInterBlock(&r.levels[4], &cur, &cbPred, e.curQp)
	loadBlock(&cur, src.Cr, cx, cy)
	predBlock(&crPred, e.reconCr, cx, cy, cmv)
	r.coded[5] = encodeInterBlock(&r.levels[5], &cur, &crPred, e.curQp)

	anyCoded := false
	for _, c := range r.coded {
		anyCoded = anyCoded || c
	}

	r.points, r.scored = pts, scored
	r.four = false
	r.mv = mv
	if mv == mvfield.Zero && !anyCoded {
		r.mode = mbSkip
	} else {
		r.mode = mbInter
	}

	// Reconstruction: coded blocks run dequant + inverse DCT + add; an
	// uncoded block's reconstruction IS its prediction, so it stores
	// directly without the inverse-transform round trip.
	var rec dct.Block
	for i, off := range lumaBlockOffsets {
		if r.mode == mbInter && r.coded[i] {
			reconInterBlock(&rec, &lumaPred[i], &r.levels[i], true, e.curQp)
			storeBlock(recon.Y, x+off[0], y+off[1], &rec)
		} else {
			storeBlock(recon.Y, x+off[0], y+off[1], &lumaPred[i])
		}
	}
	if r.mode == mbInter && r.coded[4] {
		reconInterBlock(&rec, &cbPred, &r.levels[4], true, e.curQp)
		storeBlock(recon.Cb, cx, cy, &rec)
	} else {
		storeBlock(recon.Cb, cx, cy, &cbPred)
	}
	if r.mode == mbInter && r.coded[5] {
		reconInterBlock(&rec, &crPred, &r.levels[5], true, e.curQp)
		storeBlock(recon.Cr, cx, cy, &rec)
	} else {
		storeBlock(recon.Cr, cx, cy, &crPred)
	}

	curField.Set(mbx, mby, r.mv)
}

// writeInterMB serialises one analysed P-frame macroblock. The median MV
// predictor reads only causal (left/up/up-right) field entries, whose
// values are final after analysis, so the emitted symbols match the
// seed's interleaved encoder exactly.
func (e *Encoder) writeInterMB(r *mbResult, curField *mvfield.Field, mbx, mby int) {
	switch r.mode {
	case mbSkip:
		e.sw.Flag(sctxCOD, true)
		return
	case mbIntra:
		e.sw.Flag(sctxCOD, false) // coded
		e.sw.Flag(sctxMode, true) // intra
		e.writeIntraMB(r)
		return
	}
	e.sw.Flag(sctxCOD, false)      // coded
	e.sw.Flag(sctxMode, false)     // inter
	e.sw.Flag(sctxInter4V, r.four) // one or four vectors
	pred := curField.MedianPredictor(mbx, mby)
	if r.four {
		for _, mv := range r.subMV {
			d := mv.Sub(pred)
			e.sw.MVD(int32(d.X), int32(d.Y))
		}
	} else {
		d := r.mv.Sub(pred)
		e.sw.MVD(int32(d.X), int32(d.Y))
	}
	for _, c := range r.coded {
		e.sw.Flag(sctxCBP, c)
	}
	for i := range r.levels {
		if r.coded[i] {
			writeCoeffs(e.sw, &r.levels[i])
		}
	}
}

// EncodeSequence encodes frames with cfg and returns the statistics and
// the finalised bitstream. With cfg.Pipeline set, entropy coding runs on
// the frameWriter's goroutine, overlapping the next frame's analysis; the
// output is byte-identical either way.
func EncodeSequence(cfg Config, frames []*frame.Frame) (*SequenceStats, []byte, error) {
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("codec: no frames to encode")
	}
	e := NewEncoder(cfg)
	w := newFrameWriter(e, cfg.Pipeline, func(j *frameJob) error {
		e.writeFrameJob(j)
		return nil
	})
	for i, f := range frames {
		j, err := e.analyzeFrameJob(f)
		if err == nil {
			err = w.submit(j)
		}
		if err != nil {
			w.close() // drain the writer goroutine before bailing
			return nil, nil, fmt.Errorf("codec: frame %d: %w", i, err)
		}
	}
	w.close()
	return e.Stats(), e.Bitstream(), nil
}
