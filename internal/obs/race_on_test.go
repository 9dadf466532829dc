//go:build race

package obs

// raceEnabled lets allocation pins skip themselves under the race
// detector, whose instrumentation allocates on paths that otherwise do
// not.
const raceEnabled = true
