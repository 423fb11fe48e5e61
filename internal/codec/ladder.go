package codec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/frame"
)

// Simulcast ladder: one source ingested once, encoded into N renditions
// (rungs) halving in each dimension. Each rung is a plain EncodeStream fed
// by the downscale chain — no rung reads another's encoder state — so
// rung r's packets are byte-identical to EncodePackets of the source
// downscaled r times (TestLadderRungsMatchIndependentEncodes) and every
// rung decodes with the unmodified packet decoder.
//
// Topology: one goroutine per rung, chained by capacity-1 channels. Rung
// r's goroutine encodes frame n, then downscales its source frame
// (frame.DownscaleFrame, pooled output) and hands it to rung r+1 — so
// rung r+1 encodes frame n while rung r is already on frame n+1, the
// rungs pipelined like the phase overlap of the frame writer. Since every
// rung's packets are those of an independent encode, they are
// byte-identical across Workers × Pipeline × Pool
// (TestLadderBitIdenticalAcrossModes).

// RungSpec is one rendition of a ladder: its frame format and, when
// non-zero, the bitrate target its frame-lag rate controller steers to.
type RungSpec struct {
	Size       frame.Size
	TargetKbps float64
}

// ParseLadderSpec parses the "WxH@kbps,WxH@kbps,..." vocabulary shared by
// /encode?ladder= and the CLI -ladder flags. The @kbps part is optional
// (constant-quantiser rung). The parsed chain is validated: top rung
// first, each rung exactly half the previous in both dimensions, all
// macroblock-aligned.
func ParseLadderSpec(s string) ([]RungSpec, error) {
	var specs []RungSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		dim, kbpsStr, hasKbps := strings.Cut(part, "@")
		wStr, hStr, ok := strings.Cut(dim, "x")
		if !ok {
			return nil, fmt.Errorf("codec: bad ladder rung %q (want WxH or WxH@kbps)", part)
		}
		w, err1 := strconv.Atoi(wStr)
		h, err2 := strconv.Atoi(hStr)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("codec: bad ladder rung size %q", dim)
		}
		spec := RungSpec{Size: frame.Size{W: w, H: h}}
		if hasKbps {
			kbps, err := strconv.ParseFloat(kbpsStr, 64)
			if err != nil || !(kbps >= 0) || math.IsInf(kbps, 0) {
				return nil, fmt.Errorf("codec: bad ladder rung bitrate %q", kbpsStr)
			}
			spec.TargetKbps = kbps
		}
		specs = append(specs, spec)
	}
	if err := ValidateLadder(specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// ValidateLadder checks a rung chain: at least one rung, every size
// divisible into 16×16 macroblocks, and each rung exactly half the
// previous in both dimensions (the 2:1 relation frame.DownscaleFrame
// produces).
func ValidateLadder(specs []RungSpec) error {
	if len(specs) == 0 {
		return fmt.Errorf("codec: empty ladder")
	}
	for i, spec := range specs {
		if err := validateSize(spec.Size); err != nil {
			return fmt.Errorf("codec: ladder rung %d: %w", i, err)
		}
		if i > 0 {
			up := specs[i-1].Size
			if spec.Size.W != up.W/2 || spec.Size.H != up.H/2 {
				return fmt.Errorf("codec: ladder rung %d (%v) is not half of rung %d (%v)",
					i, spec.Size, i-1, up)
			}
		}
	}
	return nil
}

// Rung pairs a rendition's frame format with its complete encoder
// configuration. Each rung needs its OWN Searcher instance (never share
// one across rungs — stateful searchers like the budgeted ACBM servo
// would race); Workers/Pool/Pipeline/TargetKbps compose per rung exactly
// as for a single EncodeStream.
type Rung struct {
	Size frame.Size
	Cfg  Config
}

type ladderRung struct {
	size frame.Size
	es   *EncodeStream
	// in carries the rung's source frames: caller-owned for rung 0,
	// downscaled (pooled, ladder-owned) below it.
	in    chan *frame.Frame
	done  chan struct{}
	stats *SequenceStats
}

// LadderStream is the streaming simulcast session: source frames go in
// one at a time, and every rung's packets come out through emit, tagged
// with the rung index. Per-rung packets arrive in order; the interleaving
// across rungs is arbitrary (emit is serialised internally, so it is
// never called concurrently).
//
// The source frame passed to EncodeFrame is read by rung 0's analysis,
// its PSNR statistics and the rung-1 downscale; it must not be mutated
// until Close returns.
type LadderStream struct {
	rungs []*ladderRung
	last  int

	emitFn func(rung int, p Packet) error
	emitMu sync.Mutex

	errMu  sync.Mutex
	err    error
	closed bool
	frames int
}

// NewLadderStream starts one encode session per rung and the goroutine
// chain connecting them. The caller must call Close to drain the chain
// and collect per-rung statistics.
func NewLadderStream(rungs []Rung, emit func(rung int, p Packet) error) (*LadderStream, error) {
	specs := make([]RungSpec, len(rungs))
	for i, r := range rungs {
		specs[i] = RungSpec{Size: r.Size, TargetKbps: r.Cfg.TargetKbps}
	}
	if err := ValidateLadder(specs); err != nil {
		return nil, err
	}
	l := &LadderStream{emitFn: emit, last: len(rungs) - 1}
	for i, r := range rungs {
		rung := &ladderRung{
			size: r.Size,
			in:   make(chan *frame.Frame, 1), // one-frame lag between adjacent rungs
			done: make(chan struct{}),
		}
		idx := i
		rung.es = NewEncodeStream(r.Cfg, func(p Packet) error {
			l.emitMu.Lock()
			defer l.emitMu.Unlock()
			return l.emitFn(idx, p)
		})
		l.rungs = append(l.rungs, rung)
	}
	for i := range l.rungs {
		go l.runRung(i)
	}
	return l, nil
}

// Err returns the first error any rung hit, or nil.
func (l *LadderStream) Err() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.err
}

func (l *LadderStream) setErr(err error) {
	l.errMu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.errMu.Unlock()
}

// EncodeFrame feeds one source frame (the top rung's format) into the
// ladder. It returns once the top rung can accept the frame; encoding
// proceeds down the chain asynchronously.
func (l *LadderStream) EncodeFrame(f *frame.Frame) error {
	if l.closed {
		return fmt.Errorf("codec: ladder stream closed")
	}
	if err := l.Err(); err != nil {
		return err
	}
	if f.Size() != l.rungs[0].size {
		return fmt.Errorf("codec: ladder source is %v, top rung wants %v", f.Size(), l.rungs[0].size)
	}
	l.rungs[0].in <- f
	l.frames++
	return nil
}

// runRung is rung r's encode loop: encode, downscale and hand down,
// recycle the previous downscaled source.
func (l *LadderStream) runRung(r int) {
	rung := l.rungs[r]
	// prev is the rung's previous (downscaled, ladder-owned) source frame.
	// Its last readers are its own packet write (PSNR) and the downscale
	// for the rung below — both complete by the time the *next* frame's
	// EncodeFrame returns (the pipeline writer accepts frame n+1's job
	// only after finishing frame n), so it is recycled one frame late.
	// Rung 0 sources are caller-owned and never released here.
	var prev *frame.Frame
	for f := range rung.in {
		if l.Err() == nil {
			err := rung.es.EncodeFrame(f)
			if err == nil {
				if r < l.last {
					l.rungs[r+1].in <- frame.DownscaleFrame(f)
				}
				if r > 0 {
					prev.Release()
					prev = f
				}
				continue
			}
			l.setErr(fmt.Errorf("codec: ladder rung %d: %w", r, err))
		}
		// Poisoned (the first error sticks): drain without encoding. A
		// failed EncodeFrame leaves no job in flight, so the source is
		// free to recycle.
		if r > 0 {
			f.Release()
		}
	}
	if r < l.last {
		close(l.rungs[r+1].in)
	}
	stats, err := rung.es.Close()
	rung.stats = stats
	if err != nil {
		l.setErr(fmt.Errorf("codec: ladder rung %d: %w", r, err))
	}
	if r > 0 {
		// Safe only now: Close drained the rung's pipeline writer, so the
		// last frame's packet (and its PSNR read) is done.
		prev.Release()
	}
	close(rung.done)
}

// Close drains the rung chain and returns per-rung sequence statistics
// (indexed like the rung specs) plus the first error any rung hit.
// Idempotent.
func (l *LadderStream) Close() ([]*SequenceStats, error) {
	if !l.closed {
		l.closed = true
		close(l.rungs[0].in)
		for _, rung := range l.rungs {
			<-rung.done
		}
	}
	stats := make([]*SequenceStats, len(l.rungs))
	for i, rung := range l.rungs {
		stats[i] = rung.stats
	}
	return stats, l.Err()
}

// EncodeLadder is the batch form: frames in, one packet list per rung
// out (packets[r][i] is rung r's packet i, header included), plus
// per-rung statistics. The workhorse behind `vcodec encode -ladder`, the
// ladder experiment and the smoke test's offline pin.
func EncodeLadder(rungs []Rung, frames []*frame.Frame) ([][][]byte, []*SequenceStats, error) {
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("codec: no frames to encode")
	}
	packets := make([][][]byte, len(rungs))
	l, err := NewLadderStream(rungs, func(r int, p Packet) error {
		packets[r] = append(packets[r], p.Data)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, f := range frames {
		if err := l.EncodeFrame(f); err != nil {
			l.Close()
			return nil, nil, fmt.Errorf("codec: ladder frame %d: %w", i, err)
		}
	}
	stats, err := l.Close()
	if err != nil {
		return nil, nil, err
	}
	return packets, stats, nil
}
