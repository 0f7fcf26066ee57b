// A fixture clean under the whole-program rules: parameter-seeded
// randomness, no laundered nondeterminism, no cross-function order leaks.
package wholeprogram

import "math/rand"

// Draw samples from a caller-seeded generator.
func Draw(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}
