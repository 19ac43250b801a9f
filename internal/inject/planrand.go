package inject

import "math/rand"

// planSource is a rand.Source64 whose stream is bit-identical to
// rand.NewSource(seed)'s, but whose Seed costs O(1) instead of math/rand's
// 607-word Schrage LCG pass.
//
// math/rand v1 is an additive lagged-Fibonacci generator over a 607-word
// state vec. Let y list the seeded state words in the order the draws
// consume them as feed words, y[j] = vec[(940−j) mod 607] for j < 607,
// and let y[607+k] be draw k; then draw k = y[k] + y[k+334] for every k.
// Seed makes word i rngCooked[i] XOR three LCG iterates
// seed·48271ⁿ mod (2³¹−1), n = 21+3i … 23+3i, so planSource computes a
// seeded word on demand, three multiplies into a power table, and keeps
// its last 607 draws in a ring for the words past y[606]. The campaign
// plan draws ~65 values per group, so it reads only seeded words.
//
// The stream is frozen by the Go 1 compatibility promise, and math/rand's
// regress_test.go pins it; TestPlanSourceMatchesMathRand checks this
// source against math/rand on thousands of seeds.
type planSource struct {
	seed  uint64         // normalized as math/rand's Seed does: [1, 2³¹−2]
	draws uint           // draws since Seed
	ring  [rngLen]uint64 // draw k at ring[k%rngLen], for the last rngLen draws
}

const (
	rngLen  = 607 // math/rand's state words
	rngTap  = 273 // its tap distance
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	rngMask = 1<<63 - 1
)

var (
	// lcgPow[n] is lcgMul^n mod lcgMod, for every n Seed reaches.
	lcgPow [21 + 3*rngLen]uint64
	// rngCooked is math/rand's seeding constant for each state word.
	rngCooked [rngLen]uint64
)

// init fills the power table, then recovers math/rand's seeding constants
// from the first rngLen draws of rand.NewSource(1): with y as in
// planSource, y[rngLen+k] = y[k] + y[k+334] solves for y[k] from k = 606
// down, and XORing off seed 1's LCG part leaves the constants.
func init() {
	p := uint64(1)
	for n := range lcgPow {
		lcgPow[n] = p
		p = p * lcgMul % lcgMod
	}
	ref := rand.NewSource(1).(rand.Source64)
	var y [2 * rngLen]uint64
	for k := 0; k < rngLen; k++ {
		y[rngLen+k] = ref.Uint64()
	}
	for k := rngLen - 1; k >= 0; k-- {
		y[k] = y[rngLen+k] - y[k+rngLen-rngTap]
	}
	for j, w := range y[:rngLen] {
		i := (2*rngLen - rngTap - 1 - j) % rngLen
		rngCooked[i] = w ^ lcgWord(1, i)
	}
}

// lcgWord is the LCG part of seeded state word i: a<<40 ^ b<<20 ^ c,
// where a, b and c are the iterates n = 21+3i, 22+3i and 23+3i.
func lcgWord(seed uint64, i int) uint64 {
	n := 21 + 3*i
	return (seed*lcgPow[n]%lcgMod)<<40 ^ (seed*lcgPow[n+1]%lcgMod)<<20 ^ seed*lcgPow[n+2]%lcgMod
}

// Seed stores the seed, normalized exactly as math/rand's Seed does.
func (s *planSource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed, s.draws = uint64(seed), 0
}

func (s *planSource) Uint64() uint64 {
	k := s.draws
	s.draws++
	v := s.word(k) + s.word(k+rngLen-rngTap)
	s.ring[k%rngLen] = v
	return v
}

// word returns y[j]: seeded state word (940−j) mod 607 for j < rngLen,
// else draw j−rngLen. Uint64 asks for draw k−607 and draw k−273 before it
// stores draw k, so the ring still holds both.
func (s *planSource) word(j uint) uint64 {
	if j >= rngLen {
		return s.ring[j%rngLen]
	}
	i := rngLen - rngTap - 1 - int(j) // (940−j) mod 607, without a division
	if i < 0 {
		i += rngLen
	}
	return rngCooked[i] ^ lcgWord(s.seed, i)
}

func (s *planSource) Int63() int64 { return int64(s.Uint64() & rngMask) }
