package main

// A reading of the machine's own speed, taken between the phases of a
// run. On the sandbox a neighbour on the same core slows arithmetic by up
// to half in bursts of a millisecond or so, for minutes at a time, and a
// run's ungated times mean little without knowing whether it met them.

import (
	"math/big"
	"time"
)

type machine struct {
	base, exp, mod *big.Int
	ms             []float64
}

func newMachine() *machine {
	m := &machine{mod: new(big.Int).Lsh(big.NewInt(1), 2048)}
	m.mod.Sub(m.mod, big.NewInt(1557)) // any odd 2048-bit modulus
	m.base = new(big.Int).Rsh(m.mod, 3)
	m.exp = new(big.Int).Rsh(m.mod, 1)
	return m
}

// sample times the reference work, standard-library code no change to
// the repository touches, a few times.
func (m *machine) sample() {
	for i := 0; i < 4; i++ {
		t := time.Now()
		new(big.Int).Exp(m.base, m.exp, m.mod)
		m.ms = append(m.ms, time.Since(t).Seconds()*1e3)
	}
}
