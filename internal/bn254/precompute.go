package bn254

import (
	"math/big"
	"sync"
)

// Precomputation for the hot fixed-argument paths.
//
// Two facts make precomputation pay off throughout the scheme built on this
// package:
//
//  1. The G2 argument of almost every pairing is a long-lived public value
//     (a KGC public key, or the group generator). The Miller loop's line
//     coefficients depend only on that argument, so they can be computed
//     once (PreparedG2) and replayed against many G1 points, skipping one
//     Fp2 inversion plus the slope arithmetic per loop iteration.
//
//  2. Scalar multiplications overwhelmingly use the fixed generators of G1
//     and G2, and GT exponentiations overwhelmingly use ê(G1gen, G2gen).
//     Windowed fixed-base tables trade a one-time table build for dropping
//     every doubling (respectively squaring) from those operations.
//
// All tables are built lazily behind sync.Once guards and shared by every
// goroutine; nothing here mutates after construction.

// millerOp is one replayable step of a Miller loop: either a squaring of
// the accumulator or the multiplication by one precomputed line.
type millerOp struct {
	square bool
	line   lineCoeff
}

// PreparedG2 caches the Miller-loop line coefficients of a fixed G2 point.
// It is immutable after PrepareG2 and safe for concurrent use.
type PreparedG2 struct {
	inf bool
	ops []millerOp
}

// appendLine copies lc into a new op. Field elements are plain limb arrays,
// so a struct copy fully detaches the recorded line from the caller's
// scratch, which the next doubleCoeff/addCoeff invocation overwrites.
func (prep *PreparedG2) appendLine(lc *lineCoeff) {
	prep.ops = append(prep.ops, millerOp{line: *lc})
}

// PrepareG2 walks the optimal ate Miller loop for Q once, recording every
// squaring and line coefficient, so PairPrepared can replay the loop
// against any G1 point without redoing the Q-side arithmetic.
func PrepareG2(Q *G2) *PreparedG2 {
	prep := &PreparedG2{}
	if Q.inf {
		prep.inf = true
		return prep
	}
	// Capacity: one square per loop digit plus at most two lines per digit
	// and the two Frobenius lines.
	n := len(ateLoopNAF) - 1
	prep.ops = make([]millerOp, 0, 3*n+2)

	ateLoop(Q, func(square bool, lc *lineCoeff) {
		if square {
			prep.ops = append(prep.ops, millerOp{square: true})
		} else {
			prep.appendLine(lc)
		}
	})
	return prep
}

// IsInfinity reports whether the prepared point is the identity.
func (prep *PreparedG2) IsInfinity() bool { return prep.inf }

// millerLoopPrepared replays a recorded Miller loop against P. It performs
// exactly the same field operations as millerLoop(P, Q), so the results are
// bit-identical.
func millerLoopPrepared(P *G1, prep *PreparedG2) *fp12 {
	var f fp12
	f.SetOne()
	if P.inf || prep.inf {
		return &f
	}
	for i := range prep.ops {
		op := &prep.ops[i]
		if op.square {
			f.Square(&f)
		} else {
			evalLine(&f, &op.line, P)
		}
	}
	return &f
}

// PairPrepared computes ê(P, Q) for a prepared Q. The output is identical
// to Pair(P, Q); only the Q-side Miller-loop work is skipped.
func PairPrepared(P *G1, prep *PreparedG2) *GT {
	f := millerLoopPrepared(P, prep)
	var g GT
	g.v.Set(finalExponentiation(f))
	return &g
}

// PairProductPrepared computes ∏ ê(Pᵢ, Qᵢ) for prepared Qᵢ, sharing a
// single final exponentiation like PairProduct.
func PairProductPrepared(ps []*G1, preps []*PreparedG2) *GT {
	if len(ps) != len(preps) {
		panic("bn254: mismatched PairProductPrepared inputs")
	}
	var acc fp12
	acc.SetOne()
	for i := range ps {
		f := millerLoopPrepared(ps[i], preps[i])
		acc.Mul(&acc, f)
	}
	var g GT
	g.v.Set(finalExponentiation(&acc))
	return &g
}

var (
	g2GenPrepOnce sync.Once
	g2GenPrep     *PreparedG2
)

// G2GeneratorPrepared returns the prepared form of the fixed G2 generator,
// computed once and cached. The returned value is shared; do not modify.
func G2GeneratorPrepared() *PreparedG2 {
	g2GenPrepOnce.Do(func() {
		g2GenPrep = PrepareG2(&g2Gen)
	})
	return g2GenPrep
}

// ---------------------------------------------------------------------------
// Fixed-base windowed scalar multiplication
// ---------------------------------------------------------------------------

const (
	// fixedBaseWindow is the window width in bits.
	fixedBaseWindow = 4
	// fixedBaseWindows covers a full 256-bit reduced scalar.
	fixedBaseWindows = 256 / fixedBaseWindow
	// fixedBaseEntries is the number of nonzero window values (1..15).
	fixedBaseEntries = 1<<fixedBaseWindow - 1
)

// windowValue extracts window w (fixedBaseWindow bits) of the reduced
// scalar k.
func windowValue(k *big.Int, w int) uint {
	base := w * fixedBaseWindow
	v := uint(0)
	for b := 0; b < fixedBaseWindow; b++ {
		v |= k.Bit(base+b) << b
	}
	return v
}

// g1FixedTable holds tab[w][v-1] = v·2^(4w)·B for a fixed base B.
type g1FixedTable struct {
	tab [fixedBaseWindows][fixedBaseEntries]G1
}

func buildG1FixedTable(base *G1) *g1FixedTable {
	t := new(g1FixedTable)
	var cur G1
	cur.Set(base)
	for w := 0; w < fixedBaseWindows; w++ {
		t.tab[w][0].Set(&cur)
		for v := 1; v < fixedBaseEntries; v++ {
			t.tab[w][v].Add(&t.tab[w][v-1], &cur)
		}
		var next G1
		next.Add(&t.tab[w][fixedBaseEntries-1], &cur) // 16·cur
		cur.Set(&next)
	}
	return t
}

// mul computes p = k·B by summing one table entry per nonzero window: at
// most 64 mixed Jacobian additions and one final inversion, against the
// ~254 doublings plus ~127 additions of the generic ladder.
func (t *g1FixedTable) mul(p *G1, k *big.Int) *G1 {
	kk := new(big.Int).Mod(k, Order)
	var acc g1Jac
	acc.setInfinity()
	for w := 0; w < fixedBaseWindows; w++ {
		if v := windowValue(kk, w); v != 0 {
			acc.addMixed(&t.tab[w][v-1])
		}
	}
	acc.toAffine(p)
	return p
}

// g2FixedTable is the G2 analogue of g1FixedTable. Accumulation is mixed
// Jacobian like G1: with limb-based field arithmetic an Fp2 inversion costs
// hundreds of multiplications, so one inversion at the end beats one per
// window (the reverse of the old math/big trade-off; see G2.ScalarMult).
type g2FixedTable struct {
	tab [fixedBaseWindows][fixedBaseEntries]G2
}

func buildG2FixedTable(base *G2) *g2FixedTable {
	t := new(g2FixedTable)
	var cur G2
	cur.Set(base)
	for w := 0; w < fixedBaseWindows; w++ {
		t.tab[w][0].Set(&cur)
		for v := 1; v < fixedBaseEntries; v++ {
			t.tab[w][v].Add(&t.tab[w][v-1], &cur)
		}
		var next G2
		next.Add(&t.tab[w][fixedBaseEntries-1], &cur)
		cur.Set(&next)
	}
	return t
}

func (t *g2FixedTable) mul(p *G2, k *big.Int) *G2 {
	kk := new(big.Int).Mod(k, Order)
	var acc g2Jac
	acc.setInfinity()
	for w := 0; w < fixedBaseWindows; w++ {
		if v := windowValue(kk, w); v != 0 {
			acc.addMixed(&t.tab[w][v-1])
		}
	}
	acc.toAffine(p)
	return p
}

// gtFixedTable holds tab[w][v-1] = B^(v·2^(4w)) for the fixed GT base.
type gtFixedTable struct {
	tab [fixedBaseWindows][fixedBaseEntries]fp12
}

func buildGTFixedTable(base *fp12) *gtFixedTable {
	t := new(gtFixedTable)
	var cur fp12
	cur.Set(base)
	for w := 0; w < fixedBaseWindows; w++ {
		t.tab[w][0].Set(&cur)
		for v := 1; v < fixedBaseEntries; v++ {
			t.tab[w][v].Mul(&t.tab[w][v-1], &cur)
		}
		var next fp12
		next.Mul(&t.tab[w][fixedBaseEntries-1], &cur)
		cur.Set(&next)
	}
	return t
}

// exp computes out = B^k with one multiplication per nonzero window and no
// squarings at all.
func (t *gtFixedTable) exp(out *fp12, k *big.Int) *fp12 {
	kk := new(big.Int).Mod(k, Order)
	out.SetOne()
	for w := 0; w < fixedBaseWindows; w++ {
		if v := windowValue(kk, w); v != 0 {
			out.Mul(out, &t.tab[w][v-1])
		}
	}
	return out
}

var (
	g1GenTableOnce sync.Once
	g1GenTable     *g1FixedTable

	g2GenTableOnce sync.Once
	g2GenTable     *g2FixedTable

	gtBaseTableOnce sync.Once
	gtBaseTable     *gtFixedTable
)

func g1GeneratorTable() *g1FixedTable {
	g1GenTableOnce.Do(func() {
		g1GenTable = buildG1FixedTable(&g1Gen)
	})
	return g1GenTable
}

func g2GeneratorTable() *g2FixedTable {
	g2GenTableOnce.Do(func() {
		g2GenTable = buildG2FixedTable(&g2Gen)
	})
	return g2GenTable
}

func gtBaseFixedTable() *gtFixedTable {
	gtBaseTableOnce.Do(func() {
		gtBaseTable = buildGTFixedTable(&GTBase().v)
	})
	return gtBaseTable
}
