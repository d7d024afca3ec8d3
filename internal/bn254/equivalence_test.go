package bn254

import (
	"math/big"
	"math/rand"
	"testing"
)

// Equivalence tests for the cyclotomic final exponentiation, the sparse line
// products and the signed-digit loops: each routine against the one it
// replaced, on the values it actually sees.

// cyclotomicSamples returns values in the cyclotomic subgroup from every
// source the pairing code squares: easy-part outputs of random Fp12 values
// and of Miller-loop outputs, and GT values from Pair, GTBase, RandomGT,
// GTExpBase and GT.Mul.
func cyclotomicSamples(t *testing.T) map[string]*fp12 {
	t.Helper()
	r := rand.New(rand.NewSource(60))
	p, q := randG1(r), randG2(r)
	rnd, _, err := RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	var prod GT
	prod.Mul(Pair(p, q), GTExpBase(big.NewInt(12345)))
	return map[string]*fp12{
		"easy part of random fp12":  easyPart(new(fp12), randFp12(r)),
		"easy part of random fp12'": easyPart(new(fp12), randFp12(r)),
		"easy part of Miller loop":  easyPart(new(fp12), millerLoop(p, q)),
		"Pair":                      &Pair(p, q).v,
		"GTBase":                    &GTBase().v,
		"RandomGT":                  &rnd.v,
		"GTExpBase":                 &GTExpBase(new(big.Int).Rand(r, Order)).v,
		"GT.Mul":                    &prod.v,
		"one":                       new(fp12).SetOne(),
	}
}

func TestCyclotomicSquareMatchesSquare(t *testing.T) {
	for name, a := range cyclotomicSamples(t) {
		var want, got, inPlace fp12
		want.Square(a)
		got.CyclotomicSquare(a)
		if !got.Equal(&want) {
			t.Fatalf("%s: CyclotomicSquare != Square", name)
		}
		inPlace.Set(a)
		inPlace.CyclotomicSquare(&inPlace)
		if !inPlace.Equal(&want) {
			t.Fatalf("%s: in-place CyclotomicSquare != Square", name)
		}
	}
}

// TestCyclotomicSquareNeedsSubgroup documents the precondition: outside the
// cyclotomic subgroup the formula does not compute a².
func TestCyclotomicSquareNeedsSubgroup(t *testing.T) {
	a := randFp12(rand.New(rand.NewSource(61)))
	var sq, cyc fp12
	sq.Square(a)
	cyc.CyclotomicSquare(a)
	if sq.Equal(&cyc) {
		t.Fatal("CyclotomicSquare matched Square on a random Fp12 value")
	}
}

func TestExpByUMatchesGeneric(t *testing.T) {
	for name, a := range cyclotomicSamples(t) {
		var want, got fp12
		want.Exp(a, u)
		got.Set(a)
		got.expByU(&got)
		if !got.Equal(&want) {
			t.Fatalf("%s: expByU != Exp(a, u)", name)
		}
	}
}

func TestGTExpMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	rnd, _, err := RandomGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]*GT{
		"GTBase":   GTBase(),
		"Pair":     Pair(randG1(r), randG2(r)),
		"RandomGT": rnd,
	}
	one := big.NewInt(1)
	scalars := map[string]*big.Int{
		"0":      big.NewInt(0),
		"1":      big.NewInt(1),
		"r-1":    new(big.Int).Sub(Order, one),
		"r":      new(big.Int).Set(Order),
		"r+1":    new(big.Int).Add(Order, one),
		"-1":     big.NewInt(-1),
		"random": new(big.Int).Rand(r, Order),
		"2^300":  new(big.Int).Lsh(one, 300),
	}
	for bn, a := range bases {
		for kn, k := range scalars {
			var got GT
			got.Exp(a, k)
			var want fp12
			want.Exp(&a.v, new(big.Int).Mod(k, Order))
			if !got.v.Equal(&want) {
				t.Fatalf("%s^%s: GT.Exp != generic Exp(a, k mod r)", bn, kn)
			}
			if k.Sign() >= 0 {
				// a has order r, so the unreduced exponent agrees too.
				want.Exp(&a.v, k)
				if !got.v.Equal(&want) {
					t.Fatalf("%s^%s: GT.Exp != generic Exp(a, k)", bn, kn)
				}
			}
		}
	}
}

// TestLoopNAFTables checks the signed-digit tables independently of the
// init check: they are non-adjacent forms of u and 6u+2 with the digit
// counts the loops' comments state.
func TestLoopNAFTables(t *testing.T) {
	ate := new(big.Int).Mul(big.NewInt(uParam), big.NewInt(6))
	ate.Add(ate, big.NewInt(2))
	for _, tc := range []struct {
		name    string
		d       []int8
		want    *big.Int
		nonzero int
	}{
		{"u", uNAF[:], big.NewInt(uParam), 24},
		{"6u+2", ateLoopNAF[:], ate, 22},
	} {
		got := new(big.Int)
		nonzero := 0
		for i, di := range tc.d {
			switch di {
			case 0:
				continue
			case 1:
				got.Add(got, new(big.Int).Lsh(big.NewInt(1), uint(i)))
			case -1:
				got.Sub(got, new(big.Int).Lsh(big.NewInt(1), uint(i)))
			default:
				t.Fatalf("%s: digit %d is %d", tc.name, i, di)
			}
			nonzero++
			if i > 0 && tc.d[i-1] != 0 {
				t.Fatalf("%s: adjacent nonzero digits at %d", tc.name, i)
			}
		}
		if got.Cmp(tc.want) != 0 {
			t.Fatalf("%s: digits sum to %s, want %s", tc.name, got, tc.want)
		}
		if nonzero != tc.nonzero {
			t.Fatalf("%s: %d nonzero digits, want %d", tc.name, nonzero, tc.nonzero)
		}
	}

	bad := uNAF
	bad[0] = -1
	defer func() {
		if recover() == nil {
			t.Fatal("checkNAF accepted a wrong table")
		}
	}()
	checkNAF("u", bad[:], u)
}

func TestMulBy01MatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for i := 0; i < 8; i++ {
		a := randFp6(r)
		b := randFp6(r)
		b.c2.SetZero()
		var want, got fp6
		want.Mul(a, b)
		got.mulBy01(a, &b.c0, &b.c1)
		if !got.Equal(&want) {
			t.Fatal("mulBy01 != Mul")
		}
		got.Set(a)
		got.mulBy01(&got, &b.c0, &b.c1)
		if !got.Equal(&want) {
			t.Fatal("in-place mulBy01 != Mul")
		}
	}
}

// TestEvalLineMatchesDenseMul pins the sparse line products against the
// dense Fp12 product with the line written out in full: on the real lines
// of a Miller loop, on random coefficients, and on vertical lines.
func TestEvalLineMatchesDenseMul(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	P := randG1(r)
	var lines []lineCoeff
	ateLoop(randG2(r), func(square bool, lc *lineCoeff) {
		if !square {
			lines = append(lines, *lc)
		}
	})
	for i := 0; i < 4; i++ {
		lines = append(lines, lineCoeff{a: *randFp2(r), b: *randFp2(r), c: *randFp2(r)})
		var v lineCoeff
		v.setVertical(randFp2(r))
		lines = append(lines, v)
	}
	// A vertical line from the loop's own code path: T + (−T).
	var T g2Jac
	Q := randG2(r)
	T.fromAffine(Q)
	var negQ G2
	negQ.Neg(Q)
	var v lineCoeff
	if !addStep(&v, &T, &negQ) || !v.vertical {
		t.Fatal("T + (−T) did not produce a vertical line")
	}
	lines = append(lines, v)

	for i := range lines {
		lc := &lines[i]
		f := randFp12(r)
		var want fp12
		want.Mul(f, denseLine(lc, P))
		evalLine(f, lc, P)
		if !f.Equal(&want) {
			t.Fatalf("line %d (vertical=%v): evalLine != dense Mul", i, lc.vertical)
		}
	}
}

// TestMillerLoopNAFMatchesBinary checks the signed-digit loop against the
// binary ladder it replaced: the two Miller-loop values differ by a factor
// in Fp6 (the vertical lines), and the pairings are identical.
func TestMillerLoopNAFMatchesBinary(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	for i := 0; i < 3; i++ {
		P, Q := randG1(r), randG2(r)
		naf := millerLoop(P, Q)
		bin := millerLoopBinary(P, Q)
		var ratio fp12
		ratio.Inverse(bin)
		ratio.Mul(&ratio, naf)
		if !ratio.c1.IsZero() {
			t.Fatalf("iteration %d: NAF and binary Miller loops differ outside Fp6", i)
		}
		want := finalExponentiation(bin)
		if !Pair(P, Q).v.Equal(want) {
			t.Fatalf("iteration %d: Pair != binary-ladder pairing", i)
		}
		if !PairPrepared(P, PrepareG2(Q)).v.Equal(want) {
			t.Fatalf("iteration %d: PairPrepared != binary-ladder pairing", i)
		}
		if !millerLoopPrepared(P, PrepareG2(Q)).Equal(naf) {
			t.Fatalf("iteration %d: prepared Miller loop != direct", i)
		}
	}
}
