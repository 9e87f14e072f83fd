package entropy_test

import (
	"fmt"
	"log"

	"smatch/internal/entropy"
	"smatch/internal/prf"
)

// Example shows the entropy-increase step on the paper's own illustration:
// an education attribute with values {high school, B.S., M.S., Ph.D.} at
// probabilities {0.3, 0.4, 0.2, 0.1} is mapped one-to-N into a 64-bit
// message space, lifting its entropy from under 2 bits to nearly 64.
func Example() {
	probs := []float64{0.3, 0.4, 0.2, 0.1}
	mapper, err := entropy.NewMapper(probs, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original entropy: %.2f bits\n", entropy.Shannon(probs))
	fmt.Printf("mapped entropy:   %.1f bits\n", mapper.MappedEntropy())

	// Two users with the same value get different strings...
	coins := prf.New([]byte("device-secret"), []byte("u1"))
	coins2 := prf.New([]byte("device-secret"), []byte("u2"))
	s1, _ := mapper.Map(1, coins)
	s2, _ := mapper.Map(1, coins2)
	fmt.Println("same value, same string:", s1.Cmp(s2) == 0)

	// ...but both decode back to the same value, and order is preserved.
	v1, _ := mapper.Unmap(s1)
	v2, _ := mapper.Unmap(s2)
	fmt.Println("both decode to value:", v1, v2)
	// Output:
	// original entropy: 1.85 bits
	// mapped entropy:   61.0 bits
	// same value, same string: false
	// both decode to value: 1 1
}
