package hashes

// SplitMix64 is the output function of Vigna's SplitMix64 generator: it adds
// the golden-gamma increment 0x9e3779b97f4a7c15 to x and avalanches the sum,
// a bijection on uint64. Used as a hash, it gives seeded random access
// (fleet session plans, bottleneck activity, injected faults); used as a
// generator, the state advances by the same gamma after each call, so the
// stream seeded at s is SplitMix64(s), SplitMix64(s+gamma), ...
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
