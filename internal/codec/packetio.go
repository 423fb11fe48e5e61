package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Packet framing: the packetized transport needs a container when packets
// travel over a byte stream (an HTTP response body, a file on disk). Each
// record is
//
//	uvarint packet index | uvarint payload length | payload bytes
//
// concatenated with no trailer — streaming-friendly (a consumer can act on
// each record as it arrives) and gap-tolerant (indices are explicit, so a
// file or relay that dropped packets still identifies every survivor and
// the decoder conceals the holes). Index 0 is the sequence header packet;
// frame i travels as index i+1, matching Packet.Index.

// maxFramedPacket caps a record's payload so a corrupt length field
// cannot force a multi-gigabyte allocation.
const maxFramedPacket = 1 << 28

// payloadChunk is the most a reader allocates for a payload ahead of its
// bytes arriving (readPayload).
const payloadChunk = 64 << 10

// readPayload reads a size-byte record payload, allocating only as its
// bytes arrive: the declared length is untrusted, so a 12-byte record
// claiming 256 MiB must not cost 256 MiB. A payload of up to payloadChunk
// bytes is read straight into its buffer; a longer one is staged chunk
// by chunk and joined once complete. A record cut short after c payload
// bytes therefore costs at most c + payloadChunk bytes, and a complete
// one about 2× its size — growing one buffer instead costs up to 4× on a
// cut record, and io.ReadAll's append growth about 5× on either.
func readPayload(br *bufio.Reader, size int) ([]byte, error) {
	if size <= payloadChunk {
		data := make([]byte, size)
		_, err := io.ReadFull(br, data)
		return data, err
	}
	var chunks [][]byte
	for rem := size; rem > 0; {
		c := make([]byte, min(rem, payloadChunk))
		if _, err := io.ReadFull(br, c); err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
		rem -= len(c)
	}
	return bytes.Join(chunks, nil), nil
}

// PacketWriter frames packets onto an io.Writer.
type PacketWriter struct {
	w io.Writer
}

// NewPacketWriter returns a writer framing onto w. Writes are not
// buffered: one WritePacket is at most two Write calls on w, so a
// flushing transport (http.Flusher) can forward each packet immediately.
func NewPacketWriter(w io.Writer) *PacketWriter {
	return &PacketWriter{w: w}
}

// WritePacket appends one framed record.
func (pw *PacketWriter) WritePacket(index int, data []byte) error {
	if index < 0 {
		return fmt.Errorf("codec: negative packet index %d", index)
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(index))
	n += binary.PutUvarint(hdr[n:], uint64(len(data)))
	if _, err := pw.w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := pw.w.Write(data)
	return err
}

// PacketReader parses a framed packet stream.
type PacketReader struct {
	br *bufio.Reader
}

// NewPacketReader returns a reader over r.
func NewPacketReader(r io.Reader) *PacketReader {
	return &PacketReader{br: bufio.NewReader(r)}
}

// ReadPacket returns the next record, or io.EOF at a clean end of stream.
func (pr *PacketReader) ReadPacket() (index int, data []byte, err error) {
	idx, err := binary.ReadUvarint(pr.br)
	if err == io.EOF {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, fmt.Errorf("codec: reading packet index: %w", err)
	}
	size, err := binary.ReadUvarint(pr.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("codec: reading packet length: %w", err)
	}
	if idx > 1<<32 || size > maxFramedPacket {
		return 0, nil, fmt.Errorf("codec: implausible packet record (index %d, %d bytes)", idx, size)
	}
	data, err = readPayload(pr.br, int(size))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("codec: reading packet payload: %w", err)
	}
	return int(idx), data, nil
}

// Ladder framing: a simulcast session interleaves the packet streams of
// its rungs over one byte stream, so each record carries the rung index
// up front:
//
//	uvarint rung | uvarint packet index | uvarint payload length | payload
//
// Per-rung records appear in packet order; the interleaving across rungs
// is arbitrary. Splitting a ladder stream back into per-rung plain packet
// streams is a pure reframing — payloads are identical to what the rung's
// standalone PacketWriter would carry.

// maxLadderRung bounds the rung index a reader trusts: real ladders halve
// per rung, so even 4CIF bottoms out after a handful.
const maxLadderRung = 1 << 10

// LadderPacketWriter frames rung-tagged packets onto an io.Writer. Like
// PacketWriter it never buffers: one record is at most two Write calls.
type LadderPacketWriter struct {
	w io.Writer
}

// NewLadderPacketWriter returns a ladder-framing writer onto w.
func NewLadderPacketWriter(w io.Writer) *LadderPacketWriter {
	return &LadderPacketWriter{w: w}
}

// WritePacket appends one rung-tagged record.
func (pw *LadderPacketWriter) WritePacket(rung, index int, data []byte) error {
	if rung < 0 || index < 0 {
		return fmt.Errorf("codec: negative ladder record coordinates (%d, %d)", rung, index)
	}
	var hdr [3 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(rung))
	n += binary.PutUvarint(hdr[n:], uint64(index))
	n += binary.PutUvarint(hdr[n:], uint64(len(data)))
	if _, err := pw.w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := pw.w.Write(data)
	return err
}

// LadderPacketReader parses a ladder-framed packet stream.
type LadderPacketReader struct {
	br *bufio.Reader
}

// NewLadderPacketReader returns a reader over r.
func NewLadderPacketReader(r io.Reader) *LadderPacketReader {
	return &LadderPacketReader{br: bufio.NewReader(r)}
}

// ReadPacket returns the next rung-tagged record, or io.EOF at a clean
// end of stream.
func (pr *LadderPacketReader) ReadPacket() (rung, index int, data []byte, err error) {
	rg, err := binary.ReadUvarint(pr.br)
	if err == io.EOF {
		return 0, 0, nil, io.EOF
	}
	if err != nil {
		return 0, 0, nil, fmt.Errorf("codec: reading ladder rung: %w", err)
	}
	idx, err := binary.ReadUvarint(pr.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, fmt.Errorf("codec: reading ladder packet index: %w", err)
	}
	size, err := binary.ReadUvarint(pr.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, fmt.Errorf("codec: reading ladder packet length: %w", err)
	}
	if rg > maxLadderRung || idx > 1<<32 || size > maxFramedPacket {
		return 0, 0, nil, fmt.Errorf("codec: implausible ladder record (rung %d, index %d, %d bytes)", rg, idx, size)
	}
	data, err = readPayload(pr.br, int(size))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, fmt.Errorf("codec: reading ladder packet payload: %w", err)
	}
	return int(rg), int(idx), data, nil
}
