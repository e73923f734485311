package market

// Overlay is a catalog overlay of corrected per-market failure
// probabilities, published by an online risk estimator and consumed by the
// planner in place of the catalog-declared values. It is immutable once
// published: producers build a fresh Overlay per estimation round and swap
// the pointer, so consumers may read a held overlay without locking.
type Overlay struct {
	// FailProb holds one entry per catalog market. A negative entry means
	// "no override" (the consumer keeps the declared value) — on-demand
	// markets and markets the estimator does not track stay negative.
	FailProb []float64
	// Version increments on every published rebuild. Consumers can use it
	// to skip re-applying an overlay they have already seen.
	Version uint64
	// Epoch increments only on structural resets (price-process
	// changepoints that discard estimator history). No planner reads it:
	// an epoch bump, like per-round drift, moves only the linear cost term,
	// so warm state survives it. It remains for bench/plan.go until ROADMAP
	// item 18(a), unless item 25(b) needs a per-market epoch (25(e)).
	Epoch uint64
}

// FailProbAt returns the overlaid probability for market i, or fallback
// when the overlay is nil, out of range, or has no override for i.
func (o *Overlay) FailProbAt(i int, fallback float64) float64 {
	if o == nil || i < 0 || i >= len(o.FailProb) || o.FailProb[i] < 0 {
		return fallback
	}
	return o.FailProb[i]
}

// Apply overwrites the overridden entries of one per-market failure vector
// in place. Entries without an override are left untouched. Vectors longer
// or shorter than the overlay apply on the common prefix.
func (o *Overlay) Apply(fail []float64) {
	if o == nil {
		return
	}
	n := len(fail)
	if len(o.FailProb) < n {
		n = len(o.FailProb)
	}
	for i := 0; i < n; i++ {
		if o.FailProb[i] >= 0 {
			fail[i] = o.FailProb[i]
		}
	}
}
