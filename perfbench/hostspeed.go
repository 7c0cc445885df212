package main

import "time"

// hostSpeedWindow is how long the reference loop runs before the set-ups
// and again after the measured phase.
const hostSpeedWindow = 300 * time.Millisecond

// hostSpeed runs a fixed single-threaded arithmetic loop for about d and
// returns its rate in millions of iterations per second.  It touches no
// memory, so on an unchanged program it moves only with the host: CPU
// frequency, co-tenants and hypervisor steal.  A run whose rate differs
// from its neighbours' measured a different machine.
func hostSpeed(d time.Duration) float64 {
	const chunk = 1 << 16
	x := uint64(88172645463325252)
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < chunk; i++ {
			// xorshift64: a dependent chain the compiler cannot fold.
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n += chunk
	}
	sink = x
	return float64(n) / time.Since(start).Seconds() / 1e6
}

// sink keeps the loop's result alive.
var sink uint64
