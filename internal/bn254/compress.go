package bn254

import (
	"errors"
	"fmt"

	"typepre/internal/bn254/fp"
)

// Compressed point encodings: x-coordinate plus a one-byte header carrying
// the point-at-infinity flag and the sign of y. They cut G1 points from 64
// to 33 bytes and G2 points from 128 to 65 — the wire-format trade-off the
// E3 size table quantifies (decompression costs one field square root).

// Header byte values.
const (
	compressedEven     = 0x02 // y is not lexicographically larger than −y
	compressedOdd      = 0x03 // y is lexicographically larger than −y
	compressedInfinity = 0x00
)

// G1CompressedSize is the compressed G1 encoding length in bytes.
const G1CompressedSize = 1 + g1ElementSize

// MarshalCompressed encodes p as a 33-byte compressed point.
func (p *G1) MarshalCompressed() []byte {
	out := make([]byte, G1CompressedSize)
	if p.inf {
		out[0] = compressedInfinity
		return out
	}
	if p.y.LexLarger() {
		out[0] = compressedOdd
	} else {
		out[0] = compressedEven
	}
	xb := p.x.Bytes()
	copy(out[1:], xb[:])
	return out
}

// UnmarshalCompressed decodes a compressed G1 point, recomputing y by a
// square root and validating the curve equation.
func (p *G1) UnmarshalCompressed(data []byte) error {
	if len(data) != G1CompressedSize {
		return fmt.Errorf("bn254: invalid compressed G1 length %d", len(data))
	}
	switch data[0] {
	case compressedInfinity:
		for _, b := range data[1:] {
			if b != 0 {
				return errors.New("bn254: non-zero x with infinity flag")
			}
		}
		p.inf = true
		p.x.SetZero()
		p.y.SetZero()
		return nil
	case compressedEven, compressedOdd:
	default:
		return fmt.Errorf("bn254: invalid compression header 0x%02x", data[0])
	}
	var x fp.Element
	if !x.SetBytes(data[1:]) {
		return errors.New("bn254: compressed G1 x out of range")
	}
	// y² = x³ + 3
	var y2 fp.Element
	y2.Square(&x)
	y2.Mul(&y2, &x)
	y2.Add(&y2, &curveB)
	var y fp.Element
	if !y.Sqrt(&y2) {
		return errors.New("bn254: compressed G1 x not on curve")
	}
	if y.LexLarger() != (data[0] == compressedOdd) {
		y.Neg(&y)
	}
	p.x.Set(&x)
	p.y.Set(&y)
	p.inf = false
	return nil
}

// G2CompressedSize is the compressed G2 encoding length in bytes.
const G2CompressedSize = 1 + 2*g1ElementSize

// MarshalCompressed encodes p as a 65-byte compressed point
// (header ‖ x.c0 ‖ x.c1).
func (p *G2) MarshalCompressed() []byte {
	out := make([]byte, G2CompressedSize)
	if p.inf {
		out[0] = compressedInfinity
		return out
	}
	if p.y.lexLarger() {
		out[0] = compressedOdd
	} else {
		out[0] = compressedEven
	}
	c0 := p.x.c0.Bytes()
	c1 := p.x.c1.Bytes()
	copy(out[1:1+32], c0[:])
	copy(out[1+32:], c1[:])
	return out
}

// UnmarshalCompressed decodes a compressed G2 point, recomputing y via an
// Fp2 square root, which verifies the twist equation. It does not verify
// order-r subgroup membership today: IsInSubgroup accepts every point on
// the twist (see its comment and docs/bn254.md, "Known gap").
func (p *G2) UnmarshalCompressed(data []byte) error {
	if len(data) != G2CompressedSize {
		return fmt.Errorf("bn254: invalid compressed G2 length %d", len(data))
	}
	switch data[0] {
	case compressedInfinity:
		for _, b := range data[1:] {
			if b != 0 {
				return errors.New("bn254: non-zero x with infinity flag")
			}
		}
		p.inf = true
		p.x.SetZero()
		p.y.SetZero()
		return nil
	case compressedEven, compressedOdd:
	default:
		return fmt.Errorf("bn254: invalid compression header 0x%02x", data[0])
	}
	var x fp2
	if !x.c0.SetBytes(data[1:1+32]) || !x.c1.SetBytes(data[1+32:]) {
		return errors.New("bn254: compressed G2 x out of range")
	}
	// y² = x³ + b'
	var y2 fp2
	y2.Square(&x)
	y2.Mul(&y2, &x)
	y2.Add(&y2, &twistB)
	var y fp2
	if !y.Sqrt(&y2) {
		return errors.New("bn254: compressed G2 x not on twist")
	}
	if y.lexLarger() != (data[0] == compressedOdd) {
		y.Neg(&y)
	}
	p.x.Set(&x)
	p.y.Set(&y)
	p.inf = false
	if !p.IsInSubgroup() {
		return errors.New("bn254: compressed G2 point not in order-r subgroup")
	}
	return nil
}
