package bn254

import (
	"fmt"
	"math/big"
)

// fp12 is an element of Fp12 = Fp6[ω]/(ω²−τ), stored as c0 + c1·ω.
// The zero value is the field's zero element.
type fp12 struct {
	c0, c1 fp6
}

func (e *fp12) String() string {
	return fmt.Sprintf("{%s; %s}", e.c0.String(), e.c1.String())
}

// Set assigns a to e and returns e.
func (e *fp12) Set(a *fp12) *fp12 {
	e.c0.Set(&a.c0)
	e.c1.Set(&a.c1)
	return e
}

// SetOne assigns 1 to e and returns e.
func (e *fp12) SetOne() *fp12 {
	e.c0.SetOne()
	e.c1.SetZero()
	return e
}

// SetZero assigns 0 to e and returns e.
func (e *fp12) SetZero() *fp12 {
	e.c0.SetZero()
	e.c1.SetZero()
	return e
}

// IsZero reports whether e == 0.
func (e *fp12) IsZero() bool { return e.c0.IsZero() && e.c1.IsZero() }

// IsOne reports whether e == 1.
func (e *fp12) IsOne() bool { return e.c0.IsOne() && e.c1.IsZero() }

// Equal reports whether e == a.
func (e *fp12) Equal(a *fp12) bool {
	return e.c0.Equal(&a.c0) && e.c1.Equal(&a.c1)
}

// Mul sets e = a·b and returns e. Aliasing is allowed.
func (e *fp12) Mul(a, b *fp12) *fp12 {
	// Karatsuba over ω² = τ: with v0 = a0b0 and v1 = a1b1,
	//   z0 = v0 + τ v1
	//   z1 = (a0+a1)(b0+b1) − v0 − v1
	// Three fp6 multiplications instead of four.
	var v0, v1, s, t fp6
	v0.Mul(&a.c0, &b.c0)
	v1.Mul(&a.c1, &b.c1)
	s.Add(&a.c0, &a.c1)
	t.Add(&b.c0, &b.c1)
	s.Mul(&s, &t)
	s.Sub(&s, &v0)
	s.Sub(&s, &v1)

	var z0 fp6
	z0.MulByTau(&v1)
	z0.Add(&z0, &v0)

	e.c0.Set(&z0)
	e.c1.Set(&s)
	return e
}

// mulByLine sets e = a·(l0 + (l1 + l2·τ)·ω) and returns e. Aliasing of e
// with a is allowed. Every non-vertical Miller-loop line has this shape
// (see lineCoeff). It is Mul's Karatsuba with b0 = l0 ∈ Fp2 and
// b1 = l1 + l2·τ: a0·b0 costs three fp2 multiplications and a1·b1 and
// (a0+a1)(b0+b1) five each, 13 in all where Mul takes 18.
func (e *fp12) mulByLine(a *fp12, l0, l1, l2 *fp2) *fp12 {
	var v0, v1, s fp6
	v0.MulByFp2(&a.c0, l0)
	v1.mulBy01(&a.c1, l1, l2)
	var t fp2
	t.Add(l0, l1)
	s.Add(&a.c0, &a.c1)
	s.mulBy01(&s, &t, l2)
	s.Sub(&s, &v0)
	s.Sub(&s, &v1)

	e.c0.MulByTau(&v1)
	e.c0.Add(&e.c0, &v0)
	e.c1.Set(&s)
	return e
}

// Square sets e = a² and returns e.
func (e *fp12) Square(a *fp12) *fp12 {
	// Complex squaring: with v = a0a1,
	//   z0 = (a0 + a1)(a0 + τ a1) − v − τ v  (= a0² + τ a1²)
	//   z1 = 2v
	// Two fp6 multiplications instead of three.
	var v, s, t fp6
	v.Mul(&a.c0, &a.c1)
	s.Add(&a.c0, &a.c1)
	t.MulByTau(&a.c1)
	t.Add(&t, &a.c0)
	s.Mul(&s, &t)
	s.Sub(&s, &v)
	t.MulByTau(&v)
	s.Sub(&s, &t)

	e.c0.Set(&s)
	e.c1.Double(&v)
	return e
}

// CyclotomicSquare sets e = a² and returns e, for a in the cyclotomic
// subgroup of order p⁴−p²+1: every value after the easy part of the final
// exponentiation, and so all of GT. For any other a the result is wrong.
// Aliasing is allowed.
//
// This is Granger–Scott squaring ("Faster squaring in the cyclotomic
// subgroup of sixth degree extensions", PKC 2010). Over
// Fp4 = Fp2[s]/(s²−ξ) with s = ω³, write a = A0 + A1·ω + A2·ω² where
//
//	A0 = c0.c0 + c1.c1·s,  A1 = c1.c0 + c0.c2·s,  A2 = c0.c1 + c1.c2·s.
//
// On the cyclotomic subgroup
//
//	a² = (3A0² − 2Ā0) + (3s·A2² + 2Ā1)·ω + (3A1² − 2Ā2)·ω²
//
// with Ā the Fp4 conjugate (s → −s). The three Fp4 squarings cost nine fp2
// squarings (18 base-field multiplications) where Square costs twelve fp2
// multiplications (36).
func (e *fp12) CyclotomicSquare(a *fp12) *fp12 {
	var r0, i0, r1, i1, r2, i2 fp2
	fp4Square(&r0, &i0, &a.c0.c0, &a.c1.c1) // A0²
	fp4Square(&r1, &i1, &a.c1.c0, &a.c0.c2) // A1²
	fp4Square(&r2, &i2, &a.c0.c1, &a.c1.c2) // A2²
	mulByXi(&i2, &i2)                       // s·A2² = ξ·i2 + r2·s

	// Each output coefficient reads only its own input coefficient, so
	// writing e in place is safe when e aliases a.
	threeMinusTwo(&e.c0.c0, &r0, &a.c0.c0)
	threePlusTwo(&e.c1.c1, &i0, &a.c1.c1)
	threePlusTwo(&e.c1.c0, &i2, &a.c1.c0)
	threeMinusTwo(&e.c0.c2, &r2, &a.c0.c2)
	threeMinusTwo(&e.c0.c1, &r1, &a.c0.c1)
	threePlusTwo(&e.c1.c2, &i1, &a.c1.c2)
	return e
}

// fp4Square sets re + im·s = (x + y·s)² = (x² + ξy²) + 2xy·s, with
// 2xy = (x+y)² − x² − y²: three fp2 squarings.
func fp4Square(re, im, x, y *fp2) {
	var xx, yy fp2
	xx.Square(x)
	yy.Square(y)
	im.Add(x, y)
	im.Square(im)
	im.Sub(im, &xx)
	im.Sub(im, &yy)
	mulByXi(re, &yy)
	re.Add(re, &xx)
}

// threeMinusTwo sets z = 3x − 2y as 2(x − y) + x. z may alias y.
func threeMinusTwo(z, x, y *fp2) {
	z.Sub(x, y)
	z.Double(z)
	z.Add(z, x)
}

// threePlusTwo sets z = 3x + 2y as 2(x + y) + x. z may alias y.
func threePlusTwo(z, x, y *fp2) {
	z.Add(x, y)
	z.Double(z)
	z.Add(z, x)
}

// Conjugate sets e = a0 - a1·ω, which equals a^(p⁶), and returns e.
func (e *fp12) Conjugate(a *fp12) *fp12 {
	e.c0.Set(&a.c0)
	e.c1.Neg(&a.c1)
	return e
}

// Inverse sets e = a⁻¹ and returns e. Panics on zero input.
func (e *fp12) Inverse(a *fp12) *fp12 {
	// (a0 + a1ω)⁻¹ = (a0 - a1ω)/(a0² - τ a1²)
	var d, t fp6
	d.Square(&a.c0)
	t.Square(&a.c1)
	t.MulByTau(&t)
	d.Sub(&d, &t)
	d.Inverse(&d)

	e.c0.Mul(&a.c0, &d)
	t.Neg(&a.c1)
	e.c1.Mul(&t, &d)
	return e
}

// Frobenius sets e = a^p and returns e.
func (e *fp12) Frobenius(a *fp12) *fp12 {
	// (c0 + c1ω)^p = Frob6(c0) + ξ^((p-1)/6)·Frob6(c1)·ω
	e.c0.Frobenius(&a.c0)
	var t fp6
	t.Frobenius(&a.c1)
	e.c1.MulByFp2(&t, &xiToPMinus1Over6)
	return e
}

// FrobeniusP2 sets e = a^(p²) and returns e.
func (e *fp12) FrobeniusP2(a *fp12) *fp12 {
	e.Frobenius(a)
	return e.Frobenius(e)
}

// Exp sets e = a^k for non-negative k and returns e. Aliasing is allowed.
// It uses a 4-bit fixed window (≈25% fewer multiplications than binary
// square-and-multiply for 256-bit exponents); expBinary in
// reference_test.go is the property-tested reference.
func (e *fp12) Exp(a *fp12, k *big.Int) *fp12 {
	return e.expWindowed(a, k, false)
}

// expByU sets e = a^u for a in the cyclotomic subgroup and returns e.
// Aliasing is allowed. It walks uNAF from the top: one CyclotomicSquare
// per digit, then a multiplication by a for a +1 digit or by its conjugate,
// which is a⁻¹ in the cyclotomic subgroup, for a −1 digit.
func (e *fp12) expByU(a *fp12) *fp12 {
	var res, inv fp12
	inv.Conjugate(a)
	res.Set(a)
	for i := len(uNAF) - 2; i >= 0; i-- {
		res.CyclotomicSquare(&res)
		switch uNAF[i] {
		case 1:
			res.Mul(&res, a)
		case -1:
			res.Mul(&res, &inv)
		}
	}
	return e.Set(&res)
}

// expWindowed is 4-bit fixed-window exponentiation. It squares with
// CyclotomicSquare when cyclotomic is set, which is valid only for a in the
// cyclotomic subgroup (GT.Exp), and with Square otherwise. A flag rather
// than a squaring function value keeps res off the heap.
func (e *fp12) expWindowed(a *fp12, k *big.Int, cyclotomic bool) *fp12 {
	// Precompute a^0 .. a^15.
	var table [16]fp12
	table[0].SetOne()
	table[1].Set(a)
	for i := 2; i < 16; i++ {
		table[i].Mul(&table[i-1], a)
	}
	var res fp12
	res.SetOne()
	bits := k.BitLen()
	// Round up to a multiple of 4 and scan nibbles MSB→LSB.
	top := (bits + 3) / 4 * 4
	for i := top - 4; i >= 0; i -= 4 {
		for j := 0; j < 4; j++ {
			if cyclotomic {
				res.CyclotomicSquare(&res)
			} else {
				res.Square(&res)
			}
		}
		nib := k.Bit(i) | k.Bit(i+1)<<1 | k.Bit(i+2)<<2 | k.Bit(i+3)<<3
		if nib != 0 {
			res.Mul(&res, &table[nib])
		}
	}
	return e.Set(&res)
}
