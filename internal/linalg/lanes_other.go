//go:build !amd64

package linalg

// cpuHasLanes: the lane kernel has an assembly body on amd64 only, so
// useLanes is false here and both callers run their scalar bodies.
func cpuHasLanes() bool { return false }

// lanes8x2 is unreachable off amd64 (useLanes is false).
func lanes8x2(a []float64, as int, x []float64, xs, xoff, n int, dst *[16]float64) {
	panic("linalg: no lane kernel on this GOARCH")
}

// lanes8x1 is unreachable off amd64 (useLanes is false).
func lanes8x1(a []float64, as int, x []float64, xs, n int, dst *[8]float64) {
	panic("linalg: no lane kernel on this GOARCH")
}
