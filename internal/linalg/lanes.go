package linalg

// The lane kernel computes eight outputs per pass over a strided operand:
// for l = 0..7 and each of two (lanes8x2) or four (lanes8x4) vectors p,
//
//	dst[8p+l] = Σ_{j<n} a[j·as+l] · x[j·xs + p·xoff]
//
// every output in its own accumulator, summed in ascending j from +0 — the
// one-row loop's sum, so blocking eight outputs into vector lanes is blocking
// across outputs (DESIGN.md §5, "Kernel contract"). Its bodies are
// lanes_amd64.s: lanes8x2 in two YMM registers of four lanes per vector, and
// lanes8x4 in one ZMM register of eight lanes per vector where the CPU has
// AVX-512 — two lanes8x2 passes otherwise. Each term is a separate VMULPD and
// VADDPD and never an FMA, so every lane rounds the product and the sum as
// the scalar loop does. xoff = 0 makes every vector the same one, which is
// how a caller runs a lone last vector. useLanes and useZMM record, once at
// package init, whether this CPU runs the AVX2 and the AVX-512 body; without
// the AVX2 body both callers run their scalar bodies — (*Matrix).mulBlocks
// for the risk matvec, and 2 × 2 blocks over market-major rows for the
// covariance. Callers guarantee n ≥ 1, as, xs, xoff ≥ 0 and operands long
// enough for the last term; the wrappers check that once per call.
var useLanes, useZMM = cpuHasLanes(), cpuHasZMM()

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
// otherwise (a what-if cell's k = 3 would pad 3 values to 8). Reset fixes the
// shape and the layout; the zero value holds nothing until then. One Samples
// serves one goroutine at a time.
type Samples struct {
	w, k   int
	lanes  bool
	stride int // between samples with lanes, between series without
	z      []float64
}

// Reset shapes o for k series of w samples, keeping its storage when that
// holds enough and allocating zeroed storage otherwise, so a window buffer
// serves one build after another. After Reset every padding lane is zero,
// while the series' own entries hold whatever the last shape left there:
// every series must be set before Covariance.
func (o *Samples) Reset(w, k int) {
	lanes := useLanes && k >= 8
	stride, size := w, k*w
	if lanes {
		stride = (k + 7) &^ 7
		size = w * stride
	}
	o.w, o.k, o.lanes, o.stride = w, k, lanes, stride
	if cap(o.z) < size {
		o.z = make([]float64, size)
		return
	}
	o.z = o.z[:size]
	if lanes && stride > k {
		for s := 0; s < w; s++ {
			clear(o.z[s*stride+k : (s+1)*stride])
		}
	}
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

// SetCentred8 stores the eight series r … r+7 as SetCentred does, series r+l
// being wins[l] centred on means[l]. In the sample-major layout it writes each
// sample's eight values side by side: one pass over the eight windows instead
// of eight strided ones.
func (o *Samples) SetCentred8(r int, wins *[8][]float64, means *[8]float64) {
	if !o.lanes {
		for l, win := range wins {
			o.SetCentred(r+l, win, means[l])
		}
		return
	}
	// Reslicing every window to len(w0) lets the compiler drop the bounds
	// checks from the loop.
	w0 := wins[0][:o.w]
	w1, w2, w3 := wins[1][:len(w0)], wins[2][:len(w0)], wins[3][:len(w0)]
	w4, w5, w6, w7 := wins[4][:len(w0)], wins[5][:len(w0)], wins[6][:len(w0)], wins[7][:len(w0)]
	m := *means
	z := o.z[r:]
	for s, v := range w0 {
		*(*[8]float64)(z[s*o.stride:]) = [8]float64{
			v - m[0], w1[s] - m[1], w2[s] - m[2], w3[s] - m[3],
			w4[s] - m[4], w5[s] - m[5], w6[s] - m[6], w7[s] - m[7],
		}
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
// groups × 8-column chunks, chunk c's lanes being columns c..c+7 of each
// sample and the broadcast values entries i… of the same sample — four rows
// per pass, then a last pair, then a last row paired with itself (xoff = 0).
func laneCovariance(g *Matrix, z []float64, w int) {
	k, p := g.Rows, (g.Rows+7)&^7
	d := float64(w - 1)
	var out [32]float64
	put := func(row, c int, lanes []float64) {
		for l, s := range lanes[:8] {
			if j := c + l; j >= row && j < k {
				g.Data[row*k+j] = s / d
			}
		}
	}
	i := 0
	for ; i+3 < k; i += 4 {
		for c := i &^ 7; c < k; c += 8 {
			lanes8x4(z[c:], p, z[i:], p, 1, w, &out)
			for r := 0; r < 4; r++ {
				put(i+r, c, out[8*r:])
			}
		}
	}
	for ; i < k; i += 2 {
		rows := min(k-i, 2)
		for c := i &^ 7; c < k; c += 8 {
			lanes8x2(z[c:], p, z[i:], p, rows-1, w, (*[16]float64)(out[:16]))
			for r := 0; r < rows; r++ {
				put(i+r, c, out[8*r:])
			}
		}
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
