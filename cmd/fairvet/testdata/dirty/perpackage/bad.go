// A fixture with one per-package violation (wallclock).
package perpackage

import "time"

// Stamp reads the wall clock.
func Stamp() time.Time {
	return time.Now()
}
