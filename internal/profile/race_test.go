//go:build race

package profile

// raceEnabled reports a -race build, whose instrumentation changes what
// allocates; allocation ceilings only hold without it.
const raceEnabled = true
