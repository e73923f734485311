package solver

import "math"

// Who runs part 1 of a split solve, for SetSplit.
const (
	HelperRaces    = helperRaces
	HelperTakesAll = helperTakesAll
	HelperNone     = helperNone
)

// SetSplit is the test seam over the split gate: solves of stacked dimension
// minDim or more split, with part 1 run as helper says, until the returned
// function restores the program's gate.
func SetSplit(minDim, helper int) (restore func()) {
	dim, who := splitMinDim, splitHelper
	splitMinDim, splitHelper = minDim, helper
	return func() { splitMinDim, splitHelper = dim, who }
}

// TraceDots hands every restart dot of every solve to f until the returned
// function stops it.
func TraceDots(f func(dot float64)) (stop func()) {
	traceDot = f
	return func() { traceDot = nil }
}

// TraceSplits calls f for every solve that splits until the returned
// function stops it.
func TraceSplits(f func()) (stop func()) {
	traceSplit = f
	return func() { traceSplit = nil }
}

// WarmBits returns the bits of what w seeds the next solve with: the
// iterate, the momentum pair's previous iterate, the step counter, the
// Lipschitz estimate and its eigenvector.
func WarmBits(w *WarmState) []uint64 {
	var bits []uint64
	for _, v := range [][]float64{w.x, w.xPrev, {w.tk, w.lip}, w.lipVec} {
		bits = append(bits, uint64(len(v)))
		for _, f := range v {
			bits = append(bits, math.Float64bits(f))
		}
	}
	return bits
}
