package sim

// RaceEnabled lets the external test package skip its allocation gates under
// the race detector, like the in-package ones.
const RaceEnabled = raceEnabled
