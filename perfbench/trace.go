package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/search"
)

// span is one traced interval at a layer boundary. Spans of one session
// or one replay share a trace identifier; Parent links a span to the one
// that caused it. Search spans are aggregated per frame and worker: one
// span covers a fork's calls, with their count and summed time.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
	SelfNs int64  `json:"self_ns,omitempty"`
}

// tracer keeps spans in memory; write saves them at exit.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	extra []any // flight records fetched from the served system
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start, s.End = start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, s)
	return s.ID
}

// write saves every span, then every attached record, one JSON value a
// line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, r := range t.extra {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

type interval struct{ start, end time.Time }

// forkCalls aggregates one fork's Search calls in one frame.
type forkCalls struct {
	first, last time.Time // first call's start, last call's end
	calls       int
	self        time.Duration
}

// searchFrame is what the forks of one frame did, gathered at Join.
type searchFrame struct {
	mu      sync.Mutex
	calls   []interval // every Search call of the frame
	perFork []forkCalls
	forks   int
}

// tracedSearcher decorates a search.Forker, timing every Search call.
// It is itself a Forker: each fork owns its own call log, and Join
// merges the log into the frame's shared record after forwarding the
// inner fork to the inner Join. Without Fork and Join the encoder would
// clamp itself to one worker and the traced run would measure another
// program.
type tracedSearcher struct {
	inner search.Searcher
	frame *searchFrame
	calls []interval
}

func newTracedSearcher(inner search.Searcher) (*tracedSearcher, error) {
	if _, ok := inner.(search.Forker); !ok {
		return nil, fmt.Errorf("searcher %s does not implement search.Forker", inner.Name())
	}
	return &tracedSearcher{inner: inner, frame: &searchFrame{}}, nil
}

// Name implements search.Searcher.
func (s *tracedSearcher) Name() string { return s.inner.Name() }

// Search implements search.Searcher.
func (s *tracedSearcher) Search(in *search.Input) search.Result {
	t0 := time.Now()
	r := s.inner.Search(in)
	s.calls = append(s.calls, interval{t0, time.Now()})
	return r
}

// Fork implements search.Forker.
func (s *tracedSearcher) Fork() search.Searcher {
	s.frame.mu.Lock()
	s.frame.forks++
	s.frame.mu.Unlock()
	return &tracedSearcher{inner: s.inner.(search.Forker).Fork(), frame: s.frame}
}

// Join implements search.Forker.
func (s *tracedSearcher) Join(x search.Searcher) {
	c := x.(*tracedSearcher)
	s.inner.(search.Forker).Join(c.inner)
	if len(c.calls) == 0 {
		return
	}
	agg := forkCalls{first: c.calls[0].start, last: c.calls[len(c.calls)-1].end, calls: len(c.calls)}
	for _, iv := range c.calls {
		agg.self += iv.end.Sub(iv.start)
	}
	s.frame.mu.Lock()
	defer s.frame.mu.Unlock()
	s.frame.calls = append(s.frame.calls, c.calls...)
	s.frame.perFork = append(s.frame.perFork, agg)
	c.calls = nil
}

// take hands over and resets the frame's record.
func (f *searchFrame) take() (calls []interval, perFork []forkCalls, forks int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	calls, perFork, forks = f.calls, f.perFork, f.forks
	f.calls, f.perFork, f.forks = nil, nil, 0
	return
}

// frameTotals accumulates one rung's per-frame layer times.
type frameTotals struct {
	frames, inter int
	analysis      time.Duration // wall clock of phase 1
	analysisSelf  time.Duration // analysis minus the time search calls cover
	searchSelf    time.Duration // summed Search call time
	entropy       time.Duration
	queue         time.Duration
	stallsMs      []float64
	forks         []int // forks taken per inter frame
}

// tracedObserver is a codec.FrameObserver that records an analysis span
// per frame, with the frame's search spans as children, and an entropy
// span per frame.
type tracedObserver struct {
	tr    *tracer
	trace string
	frame *searchFrame
	mu    sync.Mutex
	tot   frameTotals
}

func newTracedObserver(tr *tracer, trace string, s *tracedSearcher) *tracedObserver {
	return &tracedObserver{tr: tr, trace: trace, frame: s.frame}
}

// FrameAnalyzed implements codec.FrameObserver. Forks join before the
// encoder reports the frame, so the frame's search record is complete.
func (o *tracedObserver) FrameAnalyzed(index int, wall, queueWait, maxStall time.Duration, intra bool, qp int) {
	end := time.Now()
	start := end.Add(-wall)
	calls, perFork, forks := o.frame.take()
	id := o.tr.add(span{Trace: o.trace, Name: "codec.analysis"}, start, end)
	var searchSelf time.Duration
	for _, f := range perFork {
		searchSelf += f.self
		o.tr.add(span{Trace: o.trace, Parent: id, Name: "search.Search", Calls: f.calls, SelfNs: f.self.Nanoseconds()}, f.first, f.last)
	}
	covered := coverage(calls, start, end)
	o.mu.Lock()
	defer o.mu.Unlock()
	t := &o.tot
	t.frames++
	t.analysis += wall
	t.analysisSelf += wall - covered
	t.searchSelf += searchSelf
	t.queue += queueWait
	t.stallsMs = append(t.stallsMs, ms(maxStall))
	if !intra {
		t.inter++
		t.forks = append(t.forks, forks)
	}
}

// FrameWritten implements codec.FrameObserver.
func (o *tracedObserver) FrameWritten(index int, wall time.Duration, bits int) {
	end := time.Now()
	o.tr.add(span{Trace: o.trace, Name: "codec.entropy"}, end.Add(-wall), end)
	o.mu.Lock()
	o.tot.entropy += wall
	o.mu.Unlock()
}

func (o *tracedObserver) totals() frameTotals {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.tot
}

// coverage is the length of [start, end] covered by the union of ivs.
func coverage(ivs []interval, start, end time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	cur := start
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(cur) {
			s = cur
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}
