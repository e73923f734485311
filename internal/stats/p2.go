package stats

import (
	"fmt"
	"sort"
)

// P2Quantile is the Jain–Chlamtac P² streaming quantile estimator: it tracks
// a single quantile in O(1) memory without storing samples — the right tool
// for the monitoring subsystem's long-running tail-latency gauges, where a
// sliding sample window would grow with traffic.
//
// Not safe for concurrent use: callers must serialize Observe/Value. The
// concurrent-safe alternative for hot request paths is metrics.Histogram
// (internal/metrics), which trades exact streaming estimation for
// lock-free log-linear buckets.
type P2Quantile struct {
	p       float64
	q       [5]float64 // marker heights
	n       [5]int     // marker positions
	np      [5]float64 // desired positions
	dn      [5]float64 // position increments
	count   int
	initial []float64
}

// NewP2Quantile tracks the p-quantile (0 < p < 1).
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: P2 quantile %v outside (0,1)", p))
	}
	return &P2Quantile{
		p:  p,
		dn: [5]float64{0, p / 2, p, (1 + p) / 2, 1},
	}
}

// Observe adds one sample.
func (e *P2Quantile) Observe(x float64) {
	e.count++
	if e.count <= 5 {
		e.initial = append(e.initial, x)
		if e.count == 5 {
			sort.Float64s(e.initial)
			for i := 0; i < 5; i++ {
				e.q[i] = e.initial[i]
				e.n[i] = i + 1
			}
			e.np = [5]float64{1, 1 + float64(2*e.p), 1 + float64(4*e.p), 3 + float64(2*e.p), 5}
		}
		return
	}

	// Find the cell containing x and update extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := 0; i < 5; i++ {
		e.np[i] += e.dn[i]
	}

	// Adjust the interior markers with parabolic (or linear) interpolation.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - float64(e.n[i])
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1
			if d < 0 {
				s = -1
			}
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

func (e *P2Quantile) parabolic(i, s int) float64 {
	fs := float64(s)
	n := e.n
	q := e.q
	return q[i] + float64(fs/float64(n[i+1]-n[i-1])*
		((float64(n[i]-n[i-1])+fs)*(q[i+1]-q[i])/float64(n[i+1]-n[i])+
			(float64(n[i+1]-n[i])-fs)*(q[i]-q[i-1])/float64(n[i]-n[i-1])))
}

func (e *P2Quantile) linear(i, s int) float64 {
	return e.q[i] + float64(s)*(e.q[i+s]-e.q[i])/float64(e.n[i+s]-e.n[i])
}

// Value returns the current quantile estimate. Before five samples it falls
// back to the exact small-sample quantile.
func (e *P2Quantile) Value() float64 {
	if e.count == 0 {
		return 0
	}
	if e.count < 5 {
		tmp := append([]float64(nil), e.initial...)
		sort.Float64s(tmp)
		return quantileSorted(tmp, e.p)
	}
	return e.q[2]
}
