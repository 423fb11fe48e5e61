package main

import (
	"fmt"
	"time"
)

// runLadder runs ladder-table-4cif: one connection uploads the clip as a
// three-rung ladder session, as fast as the server reads it, and starts
// the next session as soon as the last one has ended.
func runLadder(w *workload, o runOpts) (*result, error) {
	c, err := renderClip(w.profile, w.size, w.clip, o.seed)
	if err != nil {
		return nil, err
	}
	ref, err := w.reference(c.frames)
	if err != nil {
		return nil, err
	}
	warmRef, err := w.reference(c.frames[:warmFrames])
	if err != nil {
		return nil, err
	}
	client := newClient()
	sess := func(n int, tag string) session {
		return session{clip: c, frames: n, query: w.query, rungs: w.rungs,
			traceID: fmt.Sprintf("pb-ladder-%d-%s", o.seed, tag)}
	}
	warm := func(f *fleet) error {
		out := sess(warmFrames, "warm").run(client, f.gwURL)
		if bad := countFailed(warmRef.verify(out.got)); out.err != nil || bad > 0 {
			return fmt.Errorf("%d frames failed verification (%v)", bad, out.err)
		}
		return nil
	}
	f, setup, err := setupFleet(o.dir, warm)
	if err != nil {
		return nil, err
	}
	led := newServedLedger(o.trace)
	if err := led.scrape(client, f, true); err != nil {
		f.stop()
		return nil, err
	}

	e := endToEnd{setupS: setup}
	var lats, firsts, rates []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for k := 0; time.Now().Before(deadline); k++ {
		s := sess(w.clip, fmt.Sprint(k))
		out := s.run(client, f.gwURL)
		ok := ref.verify(out.got)
		e.attempted += len(ok)
		e.failed += countFailed(ok)
		prev := out.start
		for j, d := range out.done {
			if d.IsZero() {
				continue
			}
			l := ms(d.Sub(prev))
			prev = d
			if ok[j] && l <= latencyLimitMs {
				e.onTime++
			}
			if j > 0 { // frame 0's latency is the session's first packet
				lats = append(lats, l)
			}
		}
		rates = append(rates, float64(len(ok)-countFailed(ok))/out.wall.Seconds())
		if out.first > 0 {
			firsts = append(firsts, ms(out.first))
		}
		reportErr(out)
		led.session(client, f, s, out)
	}
	if err := led.scrape(client, f, false); err != nil {
		f.stop()
		return nil, err
	}
	e.rssMB = f.stop()
	e.fps = median(rates) // per-session rates: one slow burst moves one sample
	e.maxFPS = e.fps      // closed loop: the achieved rate is the sustainable rate
	e.frameP50, e.frameP99 = quantile(lats, 0.5), tailQuantile(lats, 0.99)
	e.firstP50 = median(firsts)
	e.psnr = ref.stats[0].AvgPSNRY()
	for _, st := range ref.stats {
		e.kbps += st.BitrateKbps()
	}
	res := e.result()
	if o.trace {
		l, err := w.replayLedger([]*clip{c}, []*encoded{ref}, o, led.tr)
		if err != nil {
			return nil, err
		}
		led.fill(l)
		res.Metrics = l.metrics()
	}
	return res, nil
}
