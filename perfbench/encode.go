package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/codec"
	"repro/internal/frame"
)

// encoded is one in-process encode of a workload's clip: per rung the
// packets a served session streams (header first), or for the library
// workload a single contiguous bitstream.
type encoded struct {
	packets [][][]byte
	stats   []*codec.SequenceStats
}

// encodeWith encodes frames through the library entry point that
// matches how the workload drives the program: EncodeSequence for the
// library workload, EncodeLadder for the served simulcast one. cfg
// builds rung r's configuration.
func (w *workload) encodeWith(frames []*frame.Frame, cfg func(rung int) codec.Config) (*encoded, error) {
	if w.query == "" {
		st, bits, err := codec.EncodeSequence(cfg(0), frames)
		if err != nil {
			return nil, err
		}
		return &encoded{packets: [][][]byte{{bits}}, stats: []*codec.SequenceStats{st}}, nil
	}
	var rungs []codec.Rung
	for r, s := range w.ladderSizes() {
		rungs = append(rungs, codec.Rung{Size: s, Cfg: cfg(r)})
	}
	pk, st, err := codec.EncodeLadder(rungs, frames)
	if err != nil {
		return nil, err
	}
	return &encoded{packets: pk, stats: st}, nil
}

// reference is the serial library encode every output is compared
// against: Workers=1, no Pool, no Pipeline. It also checks that the
// reference decodes cleanly — every rung on its own after
// demultiplexing — so an output equal to it decodes too.
func (w *workload) reference(frames []*frame.Frame) (*encoded, error) {
	ref, err := w.encodeWith(frames, func(int) codec.Config {
		c := w.config()
		c.Workers = 1
		return c
	})
	if err != nil {
		return nil, fmt.Errorf("reference encode: %w", err)
	}
	if err := ref.decodes(len(frames)); err != nil {
		return nil, fmt.Errorf("reference does not decode: %w", err)
	}
	return ref, nil
}

// decodes checks that every rung decodes to n frames with no
// concealment.
func (e *encoded) decodes(n int) error {
	for r, pk := range e.packets {
		if len(pk) == 1 { // contiguous bitstream
			got, err := codec.Decode(pk[0])
			if err != nil {
				return err
			}
			if len(got) != n {
				return fmt.Errorf("decoded %d frames, want %d", len(got), n)
			}
			continue
		}
		var buf bytes.Buffer
		pw := codec.NewPacketWriter(&buf)
		for i, p := range pk {
			if err := pw.WritePacket(i, p); err != nil {
				return err
			}
		}
		res, err := codec.DecodePacketStream(&buf)
		if err != nil {
			return fmt.Errorf("rung %d: %w", r, err)
		}
		if len(res.Frames) != n || res.Concealed != 0 || res.Ignored != 0 || res.Truncated != nil {
			return fmt.Errorf("rung %d: %d frames (want %d), %d concealed, %d ignored, truncated=%v",
				r, len(res.Frames), n, res.Concealed, res.Ignored, res.Truncated)
		}
	}
	return nil
}

// verify reports, per source frame, whether o carries exactly e's
// packet for it in every rung (and both carry the same headers); a
// missing rung or packet fails its frame.
func (e *encoded) verify(o *encoded) []bool {
	if len(e.packets[0]) == 1 { // a contiguous bitstream: all or nothing
		return []bool{len(o.packets) == 1 && len(o.packets[0]) == 1 && bytes.Equal(e.packets[0][0], o.packets[0][0])}
	}
	ok := make([]bool, len(e.packets[0])-1)
	for r := range e.packets {
		if r >= len(o.packets) || len(o.packets[r]) == 0 || !bytes.Equal(e.packets[r][0], o.packets[r][0]) {
			return ok // a bad header spoils every frame
		}
	}
	for i := range ok {
		ok[i] = true
		for r := range e.packets {
			if i+1 >= len(o.packets[r]) || !bytes.Equal(e.packets[r][i+1], o.packets[r][i+1]) {
				ok[i] = false
				break
			}
		}
	}
	return ok
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
