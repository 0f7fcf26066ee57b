// A fixture with one whole-program violation (seedprov).
package wholeprogram

import "math/rand"

// Fixed uses a hardcoded seed: the experiment cannot be re-seeded.
func Fixed() *rand.Rand {
	return rand.New(rand.NewSource(1234))
}
