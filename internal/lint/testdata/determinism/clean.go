// Deterministic idioms the analyzer must not flag.
//
//machlint:pkgpath mach/internal/sim
package sim

import (
	"math/rand"
	"sort"
)

func SeededDraw(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10) // method on a seeded generator, not the global source
}

func SumValues(m map[string]int) int {
	total := 0
	for _, v := range m { // order-insensitive: integer summation only
		total += v
	}
	return total
}

func SortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	//lint:ignore determinism keys are sorted before return, so map order cannot leak
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func Invert(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m { // building another map is order-insensitive
		inv[v] = k
	}
	return inv
}

// Tally is a module type whose own Write method only counts; a map range
// calling it builds no ordered output.
type Tally struct{ n int }

func (t *Tally) Write(p []byte) (int, error) {
	t.n += len(p)
	return len(p), nil
}

func CountBytes(m map[string][]byte) int {
	var t Tally
	for _, v := range m { // a module Write method is not an output buffer
		_, _ = t.Write(v)
	}
	return t.n
}
