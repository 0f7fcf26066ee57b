// Corpus for the allow meta-rule: a suppression must name a known rule,
// carry a reason, and actually suppress something. Each defective
// directive is exactly one finding.
package allowmetacase

import "time"

//fairlint:allow sparkle this rule exists nowhere
func unknownRule() {}

// A directive with no reason still suppresses, but is itself a finding.
var t = time.Now() //fairlint:allow wallclock
//fairlint:allow hotalloc
var count = 0 // the hotalloc directive above has no reason either
//fairlint:allow rainbow this rule does not exist
var _ = t

//fairlint:allow seedprov corpus demo with nothing underneath
func unused() {}

func unusedInBody() {
	//fairlint:allow wallclock nothing on this line reads the clock
}

// A bare directive names no rule at all.
//
//fairlint:allow
func bare() {}

func properlySuppressed() time.Time {
	return time.Now() //fairlint:allow wallclock demo timestamp for docs output only
}
