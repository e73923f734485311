package metrics

import (
	"math/bits"
	"sync/atomic"
)

// Log-linear bucket layout (HdrHistogram-style): values are binned in
// microseconds; the first subCount buckets are 1µs wide, and every further
// power-of-two range [2^k, 2^{k+1}) is split into subCount equal-width
// sub-buckets. Relative bucket width is therefore ≤ 1/subCount = 6.25%
// everywhere above the linear region — tight enough that p99/p99.9 reads
// off the buckets are exact to within one bucket (≤ 6.25% relative error),
// with no sampling, locking, or memory growth.
const (
	subBits  = 4
	subCount = 1 << subBits // 16 linear sub-buckets per octave
	// maxExp caps the covered range: the top bucket ends at
	// 32<<(maxExp-1) µs ≈ 1073 s. Slower observations land in the
	// overflow cell (exposed as +Inf).
	maxExp   = 26
	nBuckets = subCount + maxExp*subCount // 432
)

// Histogram is a concurrent latency histogram: lock-free Observe (one
// atomic add per call) and Prometheus exposition with cumulative le
// buckets. All methods are nil-receiver no-ops. Construct via
// Registry.Histogram or NewHistogram.
type Histogram struct {
	counts   [nBuckets]atomic.Int64
	overflow atomic.Int64
	count    atomic.Int64
	sumNanos atomic.Int64
}

// NewHistogram returns an unregistered histogram (tests, ad-hoc use);
// production code should obtain one from Registry.Histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a microsecond value to its bucket. Values < subCount
// map linearly; beyond that, the octave is the position of the leading bit
// and the sub-bucket is the next subBits bits, making bucket boundaries
// contiguous across the linear/log seam.
func bucketIndex(us int64) int {
	if us < subCount {
		return int(us)
	}
	msb := bits.Len64(uint64(us)) - 1 // ≥ subBits
	shift := msb - subBits
	sub := int(us>>uint(shift)) - subCount // in [0, subCount)
	return subCount + (msb-subBits)*subCount + sub
}

// bucketUpperUS returns the exclusive upper bound of bucket i, in integer
// microseconds — the exact quantity, so exposition can print it without
// float noise.
func bucketUpperUS(i int) int64 {
	if i < subCount {
		return int64(i + 1)
	}
	e := (i - subCount) / subCount
	sub := (i - subCount) % subCount
	return int64(subCount+sub+1) << uint(e)
}

// Observe records one latency in seconds. Negative values clamp to zero.
func (h *Histogram) Observe(seconds float64) {
	if h == nil {
		return
	}
	if seconds < 0 {
		seconds = 0
	}
	us := int64(seconds * 1e6)
	if i := bucketIndex(us); i < nBuckets {
		h.counts[i].Add(1)
	} else {
		h.overflow.Add(1)
	}
	h.count.Add(1)
	h.sumNanos.Add(int64(seconds * 1e9))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values, in seconds.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNanos.Load()) * 1e-9
}

// Bucket is one non-empty histogram bucket for exposition: cumulative
// count of observations ≤ UpperUS, the bound in exact integer microseconds
// (for noise-free le label rendering).
type Bucket struct {
	UpperUS    int64
	Cumulative int64
}

// NonEmptyBuckets returns the cumulative (le-style) view of all non-empty
// buckets, oldest-first. Prometheus permits any subset of boundaries as
// long as counts are cumulative and +Inf (the _count) is present, so
// skipping empty buckets keeps scrapes compact (432 potential buckets,
// typically < 30 populated).
func (h *Histogram) NonEmptyBuckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	var cum int64
	for i := 0; i < nBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, Bucket{UpperUS: bucketUpperUS(i), Cumulative: cum})
	}
	return out
}
