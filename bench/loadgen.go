package main

import (
	"sync"
	"time"
)

// reqSample is one request of an open-loop run. Times are offsets from the
// run's start: when the request was due, when the generator actually sent it
// and when the reply arrived.
type reqSample struct {
	due, sent, done time.Duration
	ok              bool
}

// fromDueMS is the latency a user sees: reply time minus the time the
// request was due, so a stall's wait is charged to the requests behind it
// (no coordinated omission).
func (s reqSample) fromDueMS() float64 { return float64(s.done-s.due) / 1e6 }

// lateMS is how late the generator sent the request.
func (s reqSample) lateMS() float64 { return float64(s.sent-s.due) / 1e6 }

// serviceMS is the time inside the system under test.
func (s reqSample) serviceMS() float64 { return float64(s.done-s.sent) / 1e6 }

// openLoop sends len(due) requests on a fixed schedule (offsets from start)
// from width sender
// goroutines and nothing wider: sender j owns requests j, j+width, …, sleeps
// until each is due and calls do synchronously. A sender that falls behind
// sends immediately and stays on the original schedule — it never skips or
// re-spaces requests — so lateness accumulates into the latency measured
// from the due time. It returns one sample per request, in schedule order,
// after every sender has finished.
func openLoop(start time.Time, due []time.Duration, width int, do func(i int) bool) []reqSample {
	if width < 1 {
		width = 1
	}
	samples := make([]reqSample, len(due))
	var wg sync.WaitGroup
	for j := 0; j < width; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := j; i < len(due); i += width {
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				ok := do(i)
				samples[i] = reqSample{due: due[i], sent: sent, done: time.Since(start), ok: ok}
			}
		}(j)
	}
	wg.Wait()
	return samples
}
