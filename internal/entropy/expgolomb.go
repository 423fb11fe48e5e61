// Package entropy implements the bit-exact entropy layer of the hybrid
// codec substrate: unsigned and signed Exp-Golomb codes, differential
// motion vector coding, and run-level-last coefficient coding.
//
// The paper's reference software (TMN5/H.263) uses fixed Huffman-style VLC
// tables. We substitute Exp-Golomb codes — fully specified, decodable and
// monotone in magnitude — which preserve the property ACBM relies on:
// larger motion vector differences and larger coefficient levels cost more
// bits, so an incoherent FSBM motion field pays a measurable rate penalty.
package entropy

import (
	"fmt"
	"math/bits"

	"repro/internal/bitstream"
)

// UEBits returns the length in bits of the unsigned Exp-Golomb code for v.
func UEBits(v uint32) int {
	return 2*bits.Len64(uint64(v)+1) - 1
}

// ueCode returns the Exp-Golomb bit pattern and code width for v. Because
// x = v+1 occupies exactly Len(x) significant bits, writing x with width
// 2·Len(x)−1 emits the Len(x)−1 leading zeros and the value in one field.
// The width exceeds 64 only for v = MaxUint32 (a 65-bit code); callers
// packing codes into a single word must fall back for that case.
func ueCode(v uint32) (pattern uint64, width uint) {
	x := uint64(v) + 1
	return x, uint(2*bits.Len64(x) - 1)
}

// WriteUE appends the unsigned Exp-Golomb code for v. For every value
// whose code fits a 64-bit word (all v < MaxUint32) the zeros and the
// value land in a single WriteBits call on the word-based writer.
func WriteUE(w *bitstream.Writer, v uint32) {
	x, width := ueCode(v)
	if width <= 64 {
		w.WriteBits(x, width)
		return
	}
	n := uint(bits.Len64(x))
	w.WriteBits(0, n-1) // leading zeros
	w.WriteBits(x, n)   // value with its leading one
}

// ReadUE decodes an unsigned Exp-Golomb code.
func ReadUE(r *bitstream.Reader) (uint32, error) {
	var zeros uint
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 32 {
			return 0, fmt.Errorf("entropy: UE prefix too long")
		}
	}
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	return uint32(1<<zeros + rest - 1), nil
}

// MapSigned maps a signed value to an unsigned index using the H.264
// convention 0, 1, −1, 2, −2, ... (used by signed Exp-Golomb codes and by
// the arithmetic entropy backend's binarisation).
func MapSigned(v int32) uint32 {
	if v > 0 {
		return uint32(2*v - 1)
	}
	return uint32(-2 * v)
}

// UnmapSigned is the inverse of MapSigned.
func UnmapSigned(u uint32) int32 {
	if u%2 == 1 {
		return int32(u/2) + 1
	}
	return -int32(u / 2)
}

func seToUE(v int32) uint32 { return MapSigned(v) }

func ueToSE(u uint32) int32 { return UnmapSigned(u) }

// SEBits returns the length in bits of the signed Exp-Golomb code for v.
func SEBits(v int32) int { return UEBits(seToUE(v)) }

// WriteSE appends the signed Exp-Golomb code for v.
func WriteSE(w *bitstream.Writer, v int32) { WriteUE(w, seToUE(v)) }

// ReadSE decodes a signed Exp-Golomb code.
func ReadSE(r *bitstream.Reader) (int32, error) {
	u, err := ReadUE(r)
	if err != nil {
		return 0, err
	}
	return ueToSE(u), nil
}
