//go:build race

package core

// raceEnabled reports a -race build. The detector multiplies a full-scale
// day's memory several times over, so full-scale tests skip under it; the
// race run checks the same code on the quarter-scale day.
const raceEnabled = true
