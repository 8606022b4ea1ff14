//go:build race

package exec

// raceEnabled reports a race-detector build, under which sync.Pool — and
// so the frame pool — drops a share of what is put back on purpose:
// allocation counts there are not the render loop's.
const raceEnabled = true
