package linalg

// The lane kernel computes eight outputs per pass over a strided operand:
// for l = 0..7 and each of one or two vectors p,
//
//	dst[8p+l] = Σ_{j<n} a[j·as+l] · x[j·xs + p·xoff]
//
// every output in its own accumulator, summed in ascending j from +0 — the
// one-row loop's sum, so blocking eight outputs into vector lanes is blocking
// across outputs (DESIGN.md §5, "Kernel contract"). Its body is
// lanes_amd64.s: two YMM registers of four lanes per vector, a separate
// VMULPD and VADDPD per term and never an FMA, so every lane rounds the
// product and the sum as the scalar loop does. useLanes records, once at
// package init, whether this CPU runs it; on every other CPU both callers
// run their scalar bodies — (*Matrix).mulBlocks for the risk matvec, and
// 2 × 2 blocks over market-major rows for the covariance. Callers guarantee
// n ≥ 1, as, xs, xoff ≥ 0 and operands long enough for the last term; the
// wrappers check that once per call.
var useLanes = cpuHasLanes()

// checkLanes panics unless the last term of a lane pass is in range: the
// assembly body reads without bounds checks.
func checkLanes(a []float64, as int, x []float64, xs, xoff, n int) {
	if n < 1 || as < 0 || xs < 0 || xoff < 0 {
		panic("linalg: lane kernel needs n ≥ 1 and non-negative strides")
	}
	_ = a[(n-1)*as+7]
	_ = x[(n-1)*xs+xoff]
}

// Samples holds k centred series of w samples each, in the layout the
// covariance kernel reads: where the CPU has the lanes and k fills at least
// one lane chunk, sample-major — sample s's k values contiguous, each row
// padded with zeros to whole chunks of 8 — and one contiguous row per series
// otherwise (a what-if cell's k = 3 would pad 3 values to 8). The layout is
// fixed when the Samples is made.
type Samples struct {
	w, k   int
	lanes  bool
	stride int // between samples with lanes, between series without
	z      []float64
}

// NewSamples returns zeroed Samples for k series of w samples.
func NewSamples(w, k int) *Samples {
	if useLanes && k >= 8 {
		p := (k + 7) &^ 7
		return &Samples{w: w, k: k, lanes: true, stride: p, z: make([]float64, w*p)}
	}
	return &Samples{w: w, k: k, stride: w, z: make([]float64, k*w)}
}

// SetCentred stores series r as win[s] − mean for s < w; centring with
// stats.Mean's mean makes each entry the x_s − x̄ that stats.Covariance
// computes.
func (o *Samples) SetCentred(r int, win []float64, mean float64) {
	win = win[:o.w]
	if o.lanes {
		for s, v := range win {
			o.z[s*o.stride+r] = v - mean
		}
		return
	}
	row := o.z[r*o.stride : (r+1)*o.stride]
	for s, v := range win {
		row[s] = v - mean
	}
}

// Covariance returns the k×k sample covariance of the stored series: entry
// (a, b) is Σ_s z_sa·z_sb in ascending s from +0, divided by w−1 —
// stats.Covariance of the two uncentred series bit for bit. The upper
// triangle runs through the lane kernel in the sample-major layout and through
// scalar 2 × 2 blocks in the other; the lower triangle mirrors it (a product
// commutes bit for bit). Fewer than two samples give the zero matrix.
func (o *Samples) Covariance() *Matrix {
	k := o.k
	g := NewMatrix(k, k)
	if o.w < 2 || k == 0 {
		return g
	}
	if o.lanes {
		laneCovariance(g, o.z, o.w)
	} else {
		scalarCovariance(g, o.z, o.w)
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			g.Data[b*k+a] = g.Data[a*k+b]
		}
	}
	return g
}

// laneCovariance fills the upper triangle of g from the sample-major z: row
// pairs × 8-column chunks, chunk c's lanes being columns c..c+7 of each
// sample and the two broadcast values entries i and i+1 of the same sample;
// an odd last row runs alone.
func laneCovariance(g *Matrix, z []float64, w int) {
	k, p := g.Rows, (g.Rows+7)&^7
	d := float64(w - 1)
	var out [16]float64
	put := func(row, c int, lanes []float64) {
		for l, s := range lanes {
			if j := c + l; j >= row && j < k {
				g.Data[row*k+j] = s / d
			}
		}
	}
	i := 0
	for ; i+1 < k; i += 2 {
		for c := i &^ 7; c < k; c += 8 {
			lanes8x2(z[c:], p, z[i:], p, 1, w, &out)
			put(i, c, out[:8])
			put(i+1, c, out[8:])
		}
	}
	if i < k { // odd k: the last row holds only its diagonal entry
		c := i &^ 7
		lanes8x1(z[c:], p, z[i:], p, w, (*[8]float64)(out[:8]))
		put(i, c, out[:8])
	}
}

// scalarCovariance fills the upper triangle of g from one contiguous row of
// z per series, in 2 × 2 register blocks: entries (i, j), (i, j+1),
// (i+1, j), (i+1, j+1), four accumulators sharing the four loads of each
// sample.
func scalarCovariance(g *Matrix, z []float64, w int) {
	k := g.Rows
	d := float64(w - 1)
	row := func(i int) []float64 { return z[i*w : (i+1)*w] }
	set := func(i, j int, s float64) { g.Data[i*k+j] = s / d }
	i := 0
	for ; i+1 < k; i += 2 {
		// Reslicing to len(a0) lets the compiler drop the bounds checks from
		// the inner loops.
		a0 := row(i)
		a1 := row(i + 1)[:len(a0)]
		j := i
		for ; j+1 < k; j += 2 {
			b0, b1 := row(j)[:len(a0)], row(j + 1)[:len(a0)]
			var s00, s01, s10, s11 float64
			for q, x0 := range a0 {
				x1, y0, y1 := a1[q], b0[q], b1[q]
				s00 += float64(x0 * y0)
				s01 += float64(x0 * y1)
				s10 += float64(x1 * y0)
				s11 += float64(x1 * y1)
			}
			// On the diagonal block (j == i) s10 is entry (i+1, i), below the
			// triangle: the mirror writes s01 there, the same bits.
			set(i, j, s00)
			set(i, j+1, s01)
			set(i+1, j+1, s11)
			if j > i {
				set(i+1, j, s10)
			}
		}
		if j < k { // odd k: a 2 × 1 strip down the last column
			b := row(j)[:len(a0)]
			var s0, s1 float64
			for q, x0 := range a0 {
				s0 += float64(x0 * b[q])
				s1 += float64(a1[q] * b[q])
			}
			set(i, j, s0)
			set(i+1, j, s1)
		}
	}
	if i < k { // odd k: the last row holds only its diagonal entry
		var s float64
		for _, x := range row(i) {
			s += float64(x * x)
		}
		set(i, i, s)
	}
}
