package bn254

import (
	"math/big"
	"math/rand"
	"testing"
)

// In-package micro-benchmarks for the arithmetic layers, including the
// ablation pairs (affine vs Jacobian ladders, binary vs windowed
// exponentiation, generic vs cyclotomic squaring, chain vs direct final
// exponentiation) that back the E1 table's design-choice discussion.

func benchScalar() *big.Int {
	r := rand.New(rand.NewSource(99))
	return new(big.Int).Rand(r, Order)
}

func BenchmarkFp2Mul(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randFp2(r), randFp2(r)
	var out fp2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Mul(x, y)
	}
}

func BenchmarkFp2Inverse(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x := randFp2(r)
	var out fp2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Inverse(x)
	}
}

func BenchmarkFp6Mul(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	x, y := randFp6(r), randFp6(r)
	var out fp6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Mul(x, y)
	}
}

func BenchmarkFp12Mul(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	x, y := randFp12(r), randFp12(r)
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Mul(x, y)
	}
}

func BenchmarkFp12Square(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	x := randFp12(r)
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Square(x)
	}
}

func BenchmarkFp12CyclotomicSquare(b *testing.B) {
	x := GTBase().v
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.CyclotomicSquare(&x)
	}
}

func BenchmarkFp12Inverse(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	x := randFp12(r)
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Inverse(x)
	}
}

func BenchmarkG1ScalarMultJacobian(b *testing.B) {
	k := benchScalar()
	var out G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scalarMultJacobianG1(&out, &g1Gen, k)
	}
}

func BenchmarkG1ScalarMultAffine(b *testing.B) {
	k := benchScalar()
	var out G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.scalarMultAffine(&g1Gen, k)
	}
}

func BenchmarkG2ScalarMultJacobian(b *testing.B) {
	k := benchScalar()
	var out G2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scalarMultJacobianG2(&out, &g2Gen, k)
	}
}

func BenchmarkG2ScalarMultAffine(b *testing.B) {
	k := benchScalar()
	var out G2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.scalarMultAffine(&g2Gen, k)
	}
}

func BenchmarkFp12ExpWindowed(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x := randFp12(r)
	k := benchScalar()
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.expWindowed(x, k, false)
	}
}

func BenchmarkFp12ExpBinary(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	x := randFp12(r)
	k := benchScalar()
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.expBinary(x, k)
	}
}

func BenchmarkMillerLoop(b *testing.B) {
	p := G1Generator()
	q := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		millerLoop(p, q)
	}
}

func BenchmarkFinalExponentiation(b *testing.B) {
	f := millerLoop(G1Generator(), G2Generator())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finalExponentiation(f)
	}
}

// BenchmarkPairDirectHardPart is the ablation for the hard-part addition
// chain: the full pairing with the hard part done by generic
// exponentiation.
func BenchmarkPairDirectHardPart(b *testing.B) {
	p := G1Generator()
	q := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairDirectHardPart(p, q)
	}
}

func BenchmarkG1Compress(b *testing.B) {
	var p G1
	p.ScalarBaseMult(benchScalar())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MarshalCompressed()
	}
}

func BenchmarkG1Decompress(b *testing.B) {
	var p G1
	p.ScalarBaseMult(benchScalar())
	data := p.MarshalCompressed()
	var out G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := out.UnmarshalCompressed(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkG2Decompress(b *testing.B) {
	var p G2
	p.ScalarBaseMult(benchScalar())
	data := p.MarshalCompressed()
	var out G2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := out.UnmarshalCompressed(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrepareG2(b *testing.B) {
	q := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PrepareG2(q)
	}
}

func BenchmarkPairPrepared(b *testing.B) {
	p := G1Generator()
	prep := G2GeneratorPrepared()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PairPrepared(p, prep)
	}
}

// BenchmarkPair measures the full optimal-ate pairing with no
// precomputation: Miller loop plus final exponentiation. This is the
// headline number tracked in BENCH_bn254.json.
func BenchmarkPair(b *testing.B) {
	p := G1Generator()
	q := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(p, q)
	}
}

func BenchmarkG1ScalarBaseMultFixed(b *testing.B) {
	k := benchScalar()
	var out G1
	out.ScalarBaseMult(k) // force the table build out of the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.ScalarBaseMult(k)
	}
}

func BenchmarkG1ScalarBaseMultGeneric(b *testing.B) {
	k := benchScalar()
	var out G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.scalarBaseMultGeneric(k)
	}
}

func BenchmarkG2ScalarBaseMultFixed(b *testing.B) {
	k := benchScalar()
	var out G2
	out.ScalarBaseMult(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.ScalarBaseMult(k)
	}
}

func BenchmarkG2ScalarBaseMultGeneric(b *testing.B) {
	k := benchScalar()
	var out G2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.scalarBaseMultGeneric(k)
	}
}

func BenchmarkGTExpBaseFixed(b *testing.B) {
	k := benchScalar()
	GTExpBase(k) // force the table build out of the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GTExpBase(k)
	}
}

func BenchmarkGTExpBaseGeneric(b *testing.B) {
	k := benchScalar()
	base := GTBase()
	var out GT
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Exp(base, k)
	}
}
