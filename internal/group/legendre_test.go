package group

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
)

// eulerIsResidue is the test the kernel replaced: x^((p-1)/2) == 1 mod p.
// For an odd prime p it equals legendre(x, p) == 1.
func eulerIsResidue(x, p *big.Int) bool {
	q := new(big.Int).Rsh(new(big.Int).Sub(p, one), 1)
	return new(big.Int).Exp(x, q, p).Cmp(one) == 0
}

// TestBuiltinGroupsAreSafePrimes runs the primality checks Validate skips
// for the built-in modulus, and checks that only that modulus skips them.
func TestBuiltinGroupsAreSafePrimes(t *testing.T) {
	t.Run("2048", func(t *testing.T) {
		g := Default2048()
		if !isBuiltinPrime(g.P) || !isBuiltinPrime(new(big.Int).Set(g.P)) {
			t.Fatal("built-in modulus not recognised: Validate takes the slow path")
		}
		if !g.P.ProbablyPrime(32) || !g.Q.ProbablyPrime(32) {
			t.Fatal("built-in modulus is not a safe prime")
		}
		if g.G.Cmp(big.NewInt(4)) != 0 || new(big.Int).Exp(g.G, g.Q, g.P).Cmp(one) != 0 {
			t.Fatal("built-in generator is not 4 of order Q")
		}
	})
	for name, g := range testGroups(t) {
		if name != "2048" && isBuiltinPrime(g.P) {
			t.Errorf("generated group %s taken for the built-in one", name)
		}
	}
}

// TestValidateBuiltinModulusStillChecksTheRest: the shortcut covers the
// primality of P only.
func TestValidateBuiltinModulusStillChecksTheRest(t *testing.T) {
	// The built-ins are shared: corrupt a copy.
	fresh := func() *Group {
		d := Default2048()
		return &Group{P: d.P, Q: d.Q, G: d.G}
	}
	g := fresh()
	g.G = new(big.Int).Sub(g.P, one) // order 2
	if g.Validate() == nil {
		t.Error("generator P-1 validated")
	}
	g = fresh()
	for g.G = big.NewInt(2); eulerIsResidue(g.G, g.P); g.G.Add(g.G, one) {
	}
	if g.Validate() == nil {
		t.Errorf("non-residue generator %v validated", g.G)
	}
	g = fresh()
	g.Q = new(big.Int).Sub(g.Q, two)
	if g.Validate() == nil {
		t.Error("wrong Q validated")
	}
}

// legendreEdgeInputs returns the values the issue names, for an odd p > 4.
func legendreEdgeInputs(p *big.Int) []*big.Int {
	xs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(4),
		new(big.Int).Sub(p, one), new(big.Int).Sub(p, big.NewInt(4)),
	}
	// Short-limb values: one word, and exact powers of the word base, whose
	// low words are all zero.
	for _, sh := range []uint{31, 63, 64, 65, 128, 191, 192} {
		if x := new(big.Int).Lsh(one, sh); x.Cmp(p) < 0 {
			xs = append(xs, x, new(big.Int).Sub(x, one), new(big.Int).Add(x, one))
		}
	}
	return xs
}

func TestLegendreDifferential(t *testing.T) {
	for name, g := range testGroups(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			xs := legendreEdgeInputs(g.P)
			n := 40
			if testing.Short() {
				n = 8
			}
			for i := 0; i < n; i++ {
				x, err := rand.Int(rand.Reader, g.P)
				if err != nil {
					t.Fatal(err)
				}
				// Every fourth value is short, so operand lengths differ.
				if i%4 == 3 {
					x.Rsh(x, uint(i*g.P.BitLen()/n))
				}
				xs = append(xs, x)
			}
			for _, x := range xs {
				got := legendre(x, g.P)
				if want := big.Jacobi(x, g.P); got != want {
					t.Fatalf("legendre(%x) = %d, big.Jacobi says %d", x, got, want)
				}
				euler := eulerIsResidue(x, g.P)
				if (got == 1) != euler {
					t.Fatalf("legendre(%x) = %d, Euler's criterion says residue=%v", x, got, euler)
				}
				if g.IsElement(x) != euler {
					t.Fatalf("IsElement(%x) = %v, want %v", x, !euler, euler)
				}
			}
		})
	}
}

// TestLegendreExhaustiveSmall covers every odd modulus below 200,
// composite ones included (the kernel computes the Jacobi symbol), with
// arguments above the modulus too.
func TestLegendreExhaustiveSmall(t *testing.T) {
	for n := int64(1); n < 200; n += 2 {
		for a := int64(0); a < 2*n+2; a++ {
			x, y := big.NewInt(a), big.NewInt(n)
			if got, want := legendre(x, y), big.Jacobi(x, y); got != want {
				t.Fatalf("legendre(%d, %d) = %d, want %d", a, n, got, want)
			}
		}
	}
	for _, n := range []int64{0, 2, 4, 198} {
		if got := legendre(big.NewInt(3), big.NewInt(n)); got != 0 {
			t.Errorf("legendre(3, %d) = %d, want 0 for an even modulus", n, got)
		}
	}
}

func TestLegendreLeavesOperandsAlone(t *testing.T) {
	g := Default2048()
	x := g.Pow(big.NewInt(12345))
	x0, p0 := new(big.Int).Set(x), new(big.Int).Set(g.P)
	legendre(x, g.P)
	if x.Cmp(x0) != 0 || g.P.Cmp(p0) != 0 {
		t.Error("legendre modified an operand")
	}
}

func TestIsElementAllocs(t *testing.T) {
	g := Default2048()
	x := g.Pow(big.NewInt(987654321))
	if allocs := testing.AllocsPerRun(50, func() { g.IsElement(x) }); allocs > 2 {
		t.Errorf("IsElement allocates %.0f times per call, want <= 2", allocs)
	}
}

// TestJacobiConvergesWithinBound: on the built-in and the generated groups
// the divsteps path, not the big.Jacobi fallback, answers each x in [1, P)
// (all coprime to the prime P), and at 2048 bits it averages no more
// rounds than the ceiling, so the fast path is checked without a timer.
func TestJacobiConvergesWithinBound(t *testing.T) {
	// The mean is 98 rounds for this seed: 62 divsteps per round, about
	// 3 divsteps per bit of P.
	const meanCeiling2048 = 100
	for name, g := range testGroups(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := mrand.New(mrand.NewSource(int64(g.P.BitLen())))
			n := 100
			if testing.Short() {
				n = 20
			}
			var uniform []*big.Int // random values and subgroup elements
			for i := 0; i < n; i++ {
				uniform = append(uniform, new(big.Int).Rand(rng, g.P), g.Pow(new(big.Int).Rand(rng, g.Q)))
			}
			xs := append([]*big.Int(nil), uniform...)
			for _, x := range legendreEdgeInputs(g.P) {
				if x.Sign() > 0 { // 0 is the fallback's: TestLegendreFallback
					xs = append(xs, x)
				}
			}
			// 2^k and P - 2^k for every k below 64, then at a widening stride.
			for k := 0; k < g.P.BitLen(); k += 1 + k/64 {
				x := new(big.Int).Lsh(one, uint(k))
				xs = append(xs, x, new(big.Int).Sub(g.P, x))
			}
			total, most := 0, 0
			for i, x := range xs {
				got, rounds, ok := jacobiDivsteps(x, g.P)
				if !ok {
					t.Fatalf("jacobiDivsteps(%x) fell back after %d rounds", x, rounds)
				}
				if want := big.Jacobi(x, g.P); got != want {
					t.Fatalf("jacobiDivsteps(%x) = %d, big.Jacobi says %d", x, got, want)
				}
				if i < len(uniform) {
					total += rounds
					most = max(most, rounds)
				}
			}
			mean := float64(total) / float64(len(uniform))
			t.Logf("%d uniform inputs: mean %.1f rounds, most %d, bound %d", len(uniform), mean, most, 4*g.P.BitLen()/62+4)
			if g.P.BitLen() == 2048 && mean > meanCeiling2048 {
				t.Errorf("mean %.1f rounds at 2048 bits, ceiling %d", mean, meanCeiling2048)
			}
		})
	}
}

// TestLegendreFallback: what the divsteps path leaves to big.Jacobi gets
// its answer (0 where x shares a factor with the modulus): x = 0, x = p,
// x > p, and odd composite moduli sharing a factor with x, where f settles
// at the gcd instead of 1.
func TestLegendreFallback(t *testing.T) {
	p := Default2048().P
	composite := new(big.Int).Mul(p, big.NewInt(3))
	cases := [][2]*big.Int{
		{big.NewInt(0), p},
		{big.NewInt(0), big.NewInt(1)},
		{p, p},
		{new(big.Int).Add(p, two), p},
		{new(big.Int).Lsh(p, 70), p},
		{new(big.Int).Lsh(one, 2100), p},
		{big.NewInt(6), big.NewInt(15)},
		{big.NewInt(21), big.NewInt(35)},
		{big.NewInt(6), composite},
		{p, composite},
		{new(big.Int).Sub(composite, big.NewInt(3)), composite},
	}
	for _, c := range cases {
		x, y := c[0], c[1]
		if _, rounds, ok := jacobiDivsteps(x, y); ok {
			t.Errorf("jacobiDivsteps(%x, %x) answered after %d rounds, want the fallback", x, y, rounds)
		}
		got, want := legendre(x, y), big.Jacobi(x, y)
		if got != want {
			t.Errorf("legendre(%x, %x) = %d, big.Jacobi says %d", x, y, got, want)
		}
	}
}

// FuzzLegendre checks the kernel against big.Jacobi on arbitrary operands
// and against Euler's criterion whenever the modulus is prime.
func FuzzLegendre(f *testing.F) {
	p := Default2048().P
	f.Add([]byte{0}, []byte{1})
	f.Add([]byte{2}, []byte{7})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(new(big.Int).Sub(p, one).Bytes(), p.Bytes())
	f.Add(new(big.Int).Lsh(one, 1024).Bytes(), p.Bytes())
	// The fallback to big.Jacobi: x = 0, x = p, x > p, and a composite
	// modulus sharing a factor with x.
	f.Add([]byte{}, p.Bytes())
	f.Add(p.Bytes(), p.Bytes())
	f.Add(new(big.Int).Add(p, two).Bytes(), p.Bytes())
	f.Add([]byte{21}, []byte{35})
	f.Add(big.NewInt(6).Bytes(), new(big.Int).Mul(p, big.NewInt(3)).Bytes())
	// Fixed safe primes below Euler's 256-bit cut-off, so that the seeds
	// also reach that check: P - 1, 4 and a short x.
	for _, hexP := range []string{safePrime256, safePrime130} {
		q, _ := new(big.Int).SetString(hexP, 16)
		f.Add(new(big.Int).Sub(q, one).Bytes(), q.Bytes())
		f.Add([]byte{4}, q.Bytes())
		f.Add(new(big.Int).Lsh(one, 65).Bytes(), q.Bytes())
	}
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		if len(xb) > 512 || len(yb) > 512 {
			return
		}
		x, y := new(big.Int).SetBytes(xb), new(big.Int).SetBytes(yb)
		if y.Bit(0) == 0 {
			if got := legendre(x, y); got != 0 {
				t.Fatalf("legendre(%x, %x) = %d for an even modulus", x, y, got)
			}
			return
		}
		got := legendre(x, y)
		if want := big.Jacobi(x, y); got != want {
			t.Fatalf("legendre(%x, %x) = %d, want %d", x, y, got, want)
		}
		if y.BitLen() <= 256 && y.Cmp(two) > 0 && y.ProbablyPrime(16) {
			if euler := eulerIsResidue(new(big.Int).Mod(x, y), y); (got == 1) != euler {
				t.Fatalf("legendre(%x, %x) = %d, Euler's criterion says residue=%v", x, y, got, euler)
			}
		}
	})
}

func BenchmarkIsElement2048(b *testing.B) {
	g := Default2048()
	s, _ := g.RandScalar(nil)
	x := g.Pow(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.IsElement(x) {
			b.Fatal("subgroup element rejected")
		}
	}
}
