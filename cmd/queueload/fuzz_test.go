package main

import (
	"math/rand"
	"testing"
)

// FuzzParseMix: parseMix never panics; a mix it accepts holds only known
// endpoints with positive weights, and pick over it returns one of the
// mix's names, without a panic, for several rng seeds.
func FuzzParseMix(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		mix, err := parseMix(s)
		if err != nil {
			return
		}
		names := map[string]bool{}
		for _, m := range mix {
			if _, err := parseMix(m.name); err != nil || m.weight <= 0 {
				t.Fatalf("parseMix(%q) accepted %q with weight %d", s, m.name, m.weight)
			}
			names[m.name] = true
		}
		for seed := int64(0); seed < 8; seed++ {
			if got := pick(mix, rand.New(rand.NewSource(seed))); !names[got] {
				t.Fatalf("pick over %+v returned %q", mix, got)
			}
		}
	})
}
