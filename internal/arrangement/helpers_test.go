package arrangement

import "repro/internal/rat"

// ratAlias and ratOf keep the test files free of a direct rat import at every
// call site.
type ratAlias = rat.R

func ratOf(n int64) rat.R { return rat.FromInt(n) }

// signIn returns a cell's sign class in the named region of cx's schema.
func signIn(cx *Complex, signs []Sign, name string) Sign { return signs[cx.Schema.Index(name)] }
