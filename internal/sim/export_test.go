package sim

// RaceEnabled lets the external test package skip its allocation gates under
// the race detector, like the in-package ones.
const RaceEnabled = raceEnabled

// SetSleepOff makes Env.SleepUntil a no-op on every engine (true) or
// restores it (false). Sleep-off is how the engine behaved before nodes
// could sleep: the oracle the sleep tests compare against. It is a package
// variable so a test can switch it under worlds that hide their engine;
// tests that use it must not run in parallel.
func SetSleepOff(off bool) { sleepOff = off }
