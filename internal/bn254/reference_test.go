package bn254

import "math/big"

// Reference implementations that production code replaced. Tests pin the
// production paths against them, and bench_test.go keeps them as ablations.

// hardPartDirect computes m^((p⁴−p²+1)/r) by generic exponentiation, the
// reference for hardPartChain.
func hardPartDirect(m *fp12) *fp12 {
	var out fp12
	out.Exp(m, finalExpHard)
	return &out
}

// pairDirectHardPart computes the same pairing as Pair with the hard part
// of the final exponentiation done by hardPartDirect.
func pairDirectHardPart(P *G1, Q *G2) *GT {
	var g GT
	g.v.Set(hardPartDirect(easyPart(new(fp12), millerLoop(P, Q))))
	return &g
}

// expBinary is plain square-and-multiply, the reference for the window
// loop of fp12.Exp and GT.Exp.
func (e *fp12) expBinary(a *fp12, k *big.Int) *fp12 {
	var res, base fp12
	res.SetOne()
	base.Set(a)
	for i := k.BitLen() - 1; i >= 0; i-- {
		res.Square(&res)
		if k.Bit(i) == 1 {
			res.Mul(&res, &base)
		}
	}
	return e.Set(&res)
}

// denseLine writes the line lc evaluated at P out as a full Fp12 element,
// the operand evalLine's sparse products stand in for.
func denseLine(lc *lineCoeff, P *G1) *fp12 {
	var l fp12
	if lc.vertical {
		// c0 = (x_P, −x_T, 0), c1 = 0.
		l.c0.c0.c0.Set(&P.x)
		l.c0.c1.Set(&lc.c)
		return &l
	}
	// c0 = (a·y_P, 0, 0), c1 = (b·x_P, c, 0).
	l.c0.c0.MulScalar(&lc.a, &P.y)
	l.c1.c0.MulScalar(&lc.b, &P.x)
	l.c1.c1.Set(&lc.c)
	return &l
}

// millerLoopBinary is the Miller loop that ateLoop and evalLine replaced:
// it walks the binary digits of 6u+2, so a −1 digit never occurs, and
// multiplies every line in as a dense Fp12.
func millerLoopBinary(P *G1, Q *G2) *fp12 {
	var f fp12
	f.SetOne()
	if P.inf || Q.inf {
		return &f
	}
	n := new(big.Int).Mul(u, big.NewInt(6))
	n.Add(n, big.NewInt(2))
	var T g2Jac
	T.fromAffine(Q)
	var lc lineCoeff
	for i := n.BitLen() - 2; i >= 0; i-- {
		f.Square(&f)
		if doubleStep(&lc, &T) {
			f.Mul(&f, denseLine(&lc, P))
		}
		if n.Bit(i) == 1 && addStep(&lc, &T, Q) {
			f.Mul(&f, denseLine(&lc, P))
		}
	}
	var Q1, Q2 G2
	Q1.frobeniusTwist(Q)
	Q2.frobeniusTwist(&Q1)
	Q2.Neg(&Q2)
	if addStep(&lc, &T, &Q1) {
		f.Mul(&f, denseLine(&lc, P))
	}
	if addStep(&lc, &T, &Q2) {
		f.Mul(&f, denseLine(&lc, P))
	}
	return &f
}

// scalarMultAffine is the double-and-add ladder in affine coordinates (one
// field inversion per step), the reference for the Jacobian ladder.
func (p *G1) scalarMultAffine(a *G1, k *big.Int) *G1 {
	kk := new(big.Int).Mod(k, Order)
	var acc G1
	acc.inf = true
	var base G1
	base.Set(a)
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if kk.Bit(i) == 1 {
			acc.Add(&acc, &base)
		}
	}
	return p.Set(&acc)
}

// scalarMultAffine is the G2 analogue of G1.scalarMultAffine.
func (p *G2) scalarMultAffine(a *G2, k *big.Int) *G2 {
	kk := new(big.Int).Mod(k, Order)
	var acc G2
	acc.inf = true
	var base G2
	base.Set(a)
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if kk.Bit(i) == 1 {
			acc.Add(&acc, &base)
		}
	}
	return p.Set(&acc)
}
