package server

import (
	"fmt"
	"strings"

	"repro/internal/codec"
)

// Simulcast serving: /encode?ladder=WxH@kbps,... ingests the source once
// and streams every rung of the ladder back interleaved, each record
// tagged with its rung index (LadderContentType framing). The heavy
// lifting — downscale chain, cross-layer motion seeding, per-rung rate
// control — lives in codec.LadderStream. The session itself is the same
// encodeSession a plain upload runs (server.go): one ingest loop, one
// emit path, one observer per rung; only the stream driver, the framing
// and the trailer set differ.
//
// Ladder sessions are exempt from the adaptive QoS controller: the rungs
// ARE the quality ladder, and a client that wants a degraded stream picks
// a lower rung instead of having the controller reshape all of them. A
// pinned qoslevel still applies (uniformly, to every rung), keeping the
// stream byte-verifiable against an offline EncodeLadder run.

// rungsTrailer renders the TrailerRungs summary: one
// "WxH:frames:psnrY:kbps" entry per rung, in rung order.
func rungsTrailer(specs []codec.RungSpec, stats []*codec.SequenceStats) string {
	parts := make([]string, 0, len(specs))
	for i, st := range stats {
		n, psnr, kbps := 0, 0.0, 0.0
		if st != nil {
			n, psnr, kbps = len(st.Frames), st.AvgPSNRY(), st.BitrateKbps()
		}
		sz := specs[i].Size
		parts = append(parts, fmt.Sprintf("%dx%d:%d:%.2f:%.1f", sz.W, sz.H, n, psnr, kbps))
	}
	return strings.Join(parts, ";")
}
