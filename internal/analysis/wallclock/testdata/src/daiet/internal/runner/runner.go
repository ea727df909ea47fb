// Package runner schedules trials across a worker pool and is not on the
// wallclock allowlist: timing a trial here would leak host time into the
// results it fans out, so every real-clock read is a finding.
package runner

import "time"

func measureTrial(fn func()) time.Duration {
	t0 := time.Now() // want `wall-clock time\.Now in a sim package`
	fn()
	return time.Since(t0) // want `wall-clock time\.Since in a sim package`
}
