// Seeded violations of every determinism rule.
//
//machlint:pkgpath mach/internal/sim
package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

func WallClockSeed() int64 {
	return time.Now().UnixNano() // want "time.Now leaks wall-clock time"
}

func GlobalDraw() int {
	return rand.Intn(10) // want "rand.Intn uses the process-global random source"
}

func GlobalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "rand.Shuffle uses the process-global random source"
}

func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want "map iteration order is randomized but this loop appends to a slice"
		out = append(out, k)
	}
	return out
}

func Dump(m map[string]int) {
	for k, v := range m { // want "map iteration order is randomized but this loop formats output"
		fmt.Println(k, v)
	}
}

func Join(m map[string]int) string {
	var sb strings.Builder
	for k := range m { // want "map iteration order is randomized but this loop writes to a buffer"
		sb.WriteString(k)
	}
	return sb.String()
}

func Publish(m map[string]int, ch chan<- string) {
	for k := range m { // want "map iteration order is randomized but this loop sends on a channel"
		ch <- k
	}
}
